#include "remote/lakelib.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "base/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lake::remote {

using gpu::CuResult;
using gpu::DevicePtr;

namespace {

/** Validates a wire status code; garbled values become Unavailable. */
CuResult
toCuResult(std::uint32_t code)
{
    if (code > static_cast<std::uint32_t>(CuResult::Unavailable))
        return CuResult::Unavailable;
    return static_cast<CuResult>(code);
}

/** Reads the seq a makeCommand buffer carries at bytes [4, 8). */
std::uint32_t
seqOf(const Encoder &cmd)
{
    std::uint32_t seq = 0;
    for (int i = 0; i < 4; ++i)
        seq |= static_cast<std::uint32_t>(cmd.data()[4 + i]) << (8 * i);
    return seq;
}

} // namespace

LakeLib::LakeLib(channel::Channel &chan, shm::ShmArena &arena,
                 Doorbell doorbell)
    : chan_(chan), arena_(arena), doorbell_(std::move(doorbell))
{
    LAKE_ASSERT(doorbell_ != nullptr, "lakeLib requires a doorbell");
}

void
LakeLib::setFailureObserver(FailureObserver obs)
{
    observer_ = std::move(obs);
}

void
LakeLib::setPipeline(PipelineConfig p)
{
    flush();
    pipeline_ = p;
    if (pipeline_.max_batch == 0)
        pipeline_.max_batch = 1;
}

void
LakeLib::observe(const Status &s)
{
    if (observer_)
        observer_(s);
}

CuResult
LakeLib::garbled(const char *what)
{
    ++faults_seen_;
    observe(Status(Code::Unavailable, what));
    return CuResult::Unavailable;
}

Nanos
LakeLib::responseTimeout(std::size_t cmd_bytes) const
{
    const channel::CostModel &m = chan_.model();
    return kTimeoutRounds *
           (chan_.roundTripCost(cmd_bytes, m.bulk_threshold) +
            m.doorbell_latency);
}

Encoder &
LakeLib::begin(ApiId id)
{
    cmd_enc_.reset();
    cmd_enc_.u32(static_cast<std::uint32_t>(id)).u32(next_seq_++);
    cur_api_ = static_cast<std::uint32_t>(id);
    cur_api_name_ = apiName(id);
    return cmd_enc_;
}

void
LakeLib::ring()
{
    ++doorbells_;
    auto &tr = obs::Tracer::global();
    if (tr.enabled())
        tr.instant(obs::Side::Kernel, "remote", "doorbell",
                   chan_.clock().now());
    doorbell_();
}

void
LakeLib::enqueue()
{
    if (batch_pending_ == 0) {
        batch_enc_.reset();
        batch_enc_.u32(kBatchMagic).u32(0); // count patched when sealed
    }
    batch_enc_.u32(static_cast<std::uint32_t>(cmd_enc_.size()));
    batch_enc_.raw(cmd_enc_.data(), cmd_enc_.size());
    ++batch_pending_;
}

void
LakeLib::sealBatch()
{
    // Patch the count placeholder (bytes [4, 8), after the magic).
    batch_enc_.patchU32(4, static_cast<std::uint32_t>(batch_pending_));
    batch_pending_ = 0;
    ++batches_flushed_;
}

void
LakeLib::flush()
{
    if (batch_pending_ == 0)
        return;
    Nanos t0 = chan_.clock().now();
    std::size_t count = batch_pending_;
    // Ship the whole batch as one message and ring one doorbell for
    // all of it — the coalescing that amortizes the §6 crossing cost.
    sealBatch();
    chan_.send(channel::Channel::Dir::KernelToUser, batch_enc_.data(),
               batch_enc_.size());
    ring();
    auto &tr = obs::Tracer::global();
    if (tr.enabled())
        tr.span(obs::Side::Kernel, "remote", "batch.flush", t0,
                chan_.clock().now() - t0, obs::kNoId, "commands", count,
                "bytes", batch_enc_.size());
}

void
LakeLib::post()
{
    // One-way command: failures surface at the next synchronizing call
    // (CUDA's asynchronous-error contract), so no response is awaited —
    // the caller only pays the send-side cost.
    ++calls_;
    if (!pipeline_.enabled) {
        Nanos t0 = chan_.clock().now();
        std::uint32_t seq = seqOf(cmd_enc_);
        chan_.send(channel::Channel::Dir::KernelToUser, cmd_enc_.data(),
                   cmd_enc_.size());
        ring();
        Nanos dur = chan_.clock().now() - t0;
        auto &tr = obs::Tracer::global();
        if (tr.enabled())
            tr.span(obs::Side::Kernel, "remote", cur_api_name_, t0, dur,
                    seq, "api", cur_api_, "oneway", 1);
        auto &m = obs::Metrics::global();
        if (m.enabled())
            m.stage(obs::Stage::Send).record(cur_api_, cur_api_name_, dur);
        return;
    }
    // Pipelined: append a length-prefixed frame to the pending batch;
    // the doorbell waits for the next synchronizing call or flush.
    enqueue();
    ++commands_batched_;
    auto &tr = obs::Tracer::global();
    if (tr.enabled())
        tr.instant(obs::Side::Kernel, "remote", "batch.queue",
                   chan_.clock().now(), seqOf(cmd_enc_), "api", cur_api_,
                   "pending", batch_pending_);
    if (batch_pending_ >= pipeline_.max_batch)
        flush();
}

Result<std::vector<std::uint8_t>>
LakeLib::attempt(const Encoder &msg, std::uint32_t seq)
{
    using Dir = channel::Channel::Dir;
    ++calls_;
    // The scratch command stays intact across the drain loop, so a
    // retry can resend it (with a restamped seq) without a copy.
    Nanos send_t0 = chan_.clock().now();
    chan_.send(Dir::KernelToUser, msg.data(), msg.size());
    ring();
    {
        auto &m = obs::Metrics::global();
        if (m.enabled())
            m.stage(obs::Stage::Send)
                .record(cur_api_, cur_api_name_,
                        chan_.clock().now() - send_t0);
    }

    // Drain until our echo appears: under faults the queue may hold
    // duplicates or responses whose matching command attempt timed out.
    while (true) {
        std::optional<std::vector<std::uint8_t>> resp =
            chan_.tryRecv(Dir::UserToKernel);
        if (!resp) {
            // Nothing will ever arrive — the command or its response
            // was lost. Model the caller blocking out its deadline.
            chan_.clock().advance(responseTimeout(msg.size()));
            auto &tr = obs::Tracer::global();
            if (tr.enabled())
                tr.instant(obs::Side::Kernel, "remote", "rpc.timeout",
                           chan_.clock().now(), seq, "api", cur_api_);
            return Result<std::vector<std::uint8_t>>(
                Status(Code::Unavailable,
                       detail::format("rpc seq %u: response timeout",
                                      seq)));
        }
        if (resp->size() < 4) {
            // Too short to carry an echo: corrupt, discard.
            chan_.recycle(std::move(*resp));
            continue;
        }
        std::uint32_t echo = 0;
        std::memcpy(&echo, resp->data(), sizeof(echo));
        if (echo == seq)
            return Result<std::vector<std::uint8_t>>(std::move(*resp));
        // Stale or corrupted-seq response: discard and keep draining.
        chan_.recycle(std::move(*resp));
    }
}

Result<std::vector<std::uint8_t>>
LakeLib::rpc(bool idempotent)
{
    // Queued one-way commands must execute before this call. The call
    // becomes the batch's last frame, so the daemon runs them in
    // submission order and the whole batch costs this call's one
    // message, doorbell and response. The one-way frames are not
    // idempotent, so the carrying call is never retried: a lost message
    // or response fails it (Unavailable), and nothing reads device
    // memory the lost commands should have written.
    const bool carrying = batch_pending_ > 0;
    if (carrying) {
        enqueue();
        auto &tr = obs::Tracer::global();
        if (tr.enabled())
            tr.instant(obs::Side::Kernel, "remote", "batch.carry",
                       chan_.clock().now(), seqOf(cmd_enc_), "api",
                       cur_api_, "commands", batch_pending_);
        sealBatch();
        idempotent = false;
    }
    const Encoder &msg = carrying ? batch_enc_ : cmd_enc_;

    std::uint32_t attempts =
        idempotent ? std::max<std::uint32_t>(1, retry_.max_attempts) : 1;
    Nanos backoff = retry_.backoff;
    Nanos rpc_t0 = chan_.clock().now();

    auto observeRpc = [&](std::uint32_t seq, std::uint32_t attempt_count,
                          bool ok) {
        Nanos dur = chan_.clock().now() - rpc_t0;
        auto &tr = obs::Tracer::global();
        if (tr.enabled())
            tr.span(obs::Side::Kernel, "remote", cur_api_name_, rpc_t0,
                    dur, seq, "api", cur_api_,
                    ok ? "attempts" : "failed_attempts", attempt_count);
        auto &m = obs::Metrics::global();
        if (m.enabled())
            m.stage(obs::Stage::Rpc).record(cur_api_, cur_api_name_, dur);
    };

    Status last;
    std::uint32_t a = 0;
    for (; a < attempts; ++a) {
        if (a > 0) {
            ++retries_;
            auto &tr = obs::Tracer::global();
            if (tr.enabled())
                tr.instant(obs::Side::Kernel, "remote", "rpc.retry",
                           chan_.clock().now(), seqOf(cmd_enc_), "api",
                           cur_api_, "attempt", a + 1);
            // Back off in virtual time, and stamp a fresh seq so a
            // late response to a previous attempt can never satisfy
            // this one.
            chan_.clock().advance(backoff);
            backoff = static_cast<Nanos>(static_cast<double>(backoff) *
                                         retry_.multiplier);
            cmd_enc_.patchU32(4, next_seq_++);
        }
        std::uint32_t seq = seqOf(cmd_enc_);
        Result<std::vector<std::uint8_t>> r = attempt(msg, seq);
        if (r.isOk()) {
            // Success is reported by the caller once the response body
            // also decodes; a seq-valid but garbled payload must count
            // as a transport failure, not a success.
            observeRpc(seq, a + 1, true);
            return r;
        }
        ++faults_seen_;
        last = r.status();
    }
    observeRpc(seqOf(cmd_enc_), a, false);
    observe(last);
    return Result<std::vector<std::uint8_t>>(std::move(last));
}

gpu::CuResult
LakeLib::statusRpc(bool idempotent)
{
    Result<std::vector<std::uint8_t>> r = rpc(idempotent);
    if (!r.isOk())
        return CuResult::Unavailable;
    std::vector<std::uint8_t> resp = r.takeValue();
    Decoder dec(resp);
    dec.u32(); // seq echo
    std::uint32_t code = dec.u32();
    bool ok = dec.ok();
    chan_.recycle(std::move(resp));
    if (!ok)
        return garbled("rpc: truncated status response");
    observe(Status::ok());
    return toCuResult(code);
}

CuResult
LakeLib::cuMemAlloc(DevicePtr *out, std::size_t bytes)
{
    if (out == nullptr)
        return CuResult::InvalidValue;
    begin(ApiId::CuMemAlloc).u64(bytes);
    // Not idempotent: a lost response would leak the daemon-side block.
    auto r = rpc(/*idempotent=*/false);
    if (!r.isOk())
        return CuResult::Unavailable;
    std::vector<std::uint8_t> resp = r.takeValue();
    Decoder dec(resp);
    dec.u32(); // seq
    CuResult res = toCuResult(dec.u32());
    DevicePtr ptr = dec.u64();
    bool ok = dec.ok();
    chan_.recycle(std::move(resp));
    if (!ok)
        return garbled("cuMemAlloc: garbled response");
    observe(Status::ok());
    *out = ptr;
    return res;
}

CuResult
LakeLib::cuMemFree(DevicePtr ptr)
{
    if (pipeline_.enabled && pipeline_.defer_frees) {
        // Deferred free: rides the pending batch as a one-way command;
        // an unknown-pointer failure surfaces at the next sync.
        begin(ApiId::CuMemFreeAsync).u64(ptr);
        post();
        return CuResult::Success;
    }
    begin(ApiId::CuMemFree).u64(ptr);
    // Not idempotent: the block may have been re-handed-out meanwhile.
    return statusRpc(/*idempotent=*/false);
}

CuResult
LakeLib::cuMemcpyHtoD(DevicePtr dst, const void *src, std::size_t bytes)
{
    if (src == nullptr)
        return CuResult::InvalidValue;
    // Marshalled: the payload is copied into the command and again out
    // of it in lakeD — the double buffering §3 calls out.
    bytes_marshalled_ += bytes;
    begin(ApiId::CuMemcpyHtoD).u64(dst).bytes(src, bytes);
    return statusRpc(/*idempotent=*/true);
}

CuResult
LakeLib::cuMemcpyDtoH(void *dst, DevicePtr src, std::size_t bytes)
{
    if (dst == nullptr)
        return CuResult::InvalidValue;
    bytes_marshalled_ += bytes;
    begin(ApiId::CuMemcpyDtoH).u64(src).u64(bytes);
    auto r = rpc(/*idempotent=*/true);
    if (!r.isOk())
        return CuResult::Unavailable;
    std::vector<std::uint8_t> resp = r.takeValue();
    Decoder dec(resp);
    dec.u32(); // seq
    CuResult res = toCuResult(dec.u32());
    std::size_t n = 0;
    const std::uint8_t *data = dec.bytes(&n);
    if (res == CuResult::Success) {
        if (!dec.ok() || n != bytes || data == nullptr) {
            chan_.recycle(std::move(resp));
            return garbled("cuMemcpyDtoH: garbled payload");
        }
        std::memcpy(dst, data, n);
    }
    chan_.recycle(std::move(resp));
    observe(Status::ok());
    return res;
}

CuResult
LakeLib::cuMemcpyHtoDShm(DevicePtr dst, shm::ShmOffset src,
                         std::size_t bytes)
{
    begin(ApiId::CuMemcpyHtoDShm).u64(dst).u64(src).u64(bytes).u32(0);
    return statusRpc(/*idempotent=*/true);
}

CuResult
LakeLib::cuMemcpyDtoHShm(shm::ShmOffset dst, DevicePtr src,
                         std::size_t bytes)
{
    begin(ApiId::CuMemcpyDtoHShm).u64(src).u64(dst).u64(bytes).u32(0);
    return statusRpc(/*idempotent=*/true);
}

CuResult
LakeLib::cuMemcpyHtoDShmOrdered(DevicePtr dst, shm::ShmOffset src,
                                std::size_t bytes)
{
    return pipeline_.enabled ? cuMemcpyHtoDShmAsync(dst, src, bytes, 0)
                             : cuMemcpyHtoDShm(dst, src, bytes);
}

CuResult
LakeLib::cuMemcpyDtoHShmOrdered(shm::ShmOffset dst, DevicePtr src,
                                std::size_t bytes)
{
    return pipeline_.enabled ? cuMemcpyDtoHShmAsync(dst, src, bytes, 0)
                             : cuMemcpyDtoHShm(dst, src, bytes);
}

CuResult
LakeLib::cuMemcpyHtoDShmAsync(DevicePtr dst, shm::ShmOffset src,
                              std::size_t bytes, std::uint32_t stream)
{
    begin(ApiId::CuMemcpyHtoDShmAsync)
        .u64(dst)
        .u64(src)
        .u64(bytes)
        .u32(stream);
    post();
    return CuResult::Success;
}

CuResult
LakeLib::cuMemcpyDtoHShmAsync(shm::ShmOffset dst, DevicePtr src,
                              std::size_t bytes, std::uint32_t stream)
{
    begin(ApiId::CuMemcpyDtoHShmAsync)
        .u64(src)
        .u64(dst)
        .u64(bytes)
        .u32(stream);
    post();
    return CuResult::Success;
}

CuResult
LakeLib::cuLaunchKernel(const gpu::LaunchConfig &cfg, std::uint32_t stream)
{
    Encoder &cmd = begin(ApiId::CuLaunchKernel);
    cmd.str(cfg.kernel);
    cmd.u32(cfg.grid_x).u32(cfg.block_x);
    cmd.u32(static_cast<std::uint32_t>(cfg.args.size()));
    for (std::uint64_t a : cfg.args)
        cmd.u64(a);
    cmd.u32(stream);
    post();
    return CuResult::Success;
}

CuResult
LakeLib::cuStreamSynchronize(std::uint32_t stream)
{
    begin(ApiId::CuStreamSynchronize).u32(stream);
    // Not idempotent: the sync drains the deferred-error slot, so a
    // retried sync could silently swallow an async failure report.
    return statusRpc(/*idempotent=*/false);
}

CuResult
LakeLib::cuCtxSynchronize()
{
    begin(ApiId::CuCtxSynchronize);
    return statusRpc(/*idempotent=*/false);
}

CuResult
LakeLib::cuSetDevice(std::uint32_t device)
{
    begin(ApiId::CuSetDevice).u32(device);
    // Idempotent: re-selecting the same device is a no-op on the
    // daemon, so a duplicated retry cannot corrupt state.
    return statusRpc(/*idempotent=*/true);
}

CuResult
LakeLib::nvmlGetUtilization(RemoteUtilization *out)
{
    if (out == nullptr)
        return CuResult::InvalidValue;
    begin(ApiId::NvmlGetUtilization);
    auto r = rpc(/*idempotent=*/true);
    if (!r.isOk())
        return CuResult::Unavailable;
    std::vector<std::uint8_t> resp = r.takeValue();
    Decoder dec(resp);
    dec.u32(); // seq
    CuResult res = toCuResult(dec.u32());
    float gpu_util = dec.f32();
    float mem_util = dec.f32();
    bool ok = dec.ok();
    chan_.recycle(std::move(resp));
    if (!ok)
        return garbled("nvmlGetUtilization: garbled response");
    observe(Status::ok());
    out->gpu = gpu_util;
    out->memory = mem_util;
    return res;
}

Result<std::vector<std::uint8_t>>
LakeLib::highLevelCall(const std::string &name,
                       const std::vector<std::uint8_t> &args,
                       bool idempotent)
{
    Encoder &cmd = begin(ApiId::HighLevelCall);
    cmd.str(name);
    // Args ride verbatim after the name; the handler owns their format.
    cmd.raw(args.data(), args.size());

    auto rpc_result = rpc(idempotent);
    if (!rpc_result.isOk())
        return rpc_result; // transport error, already a Status
    std::vector<std::uint8_t> resp = rpc_result.takeValue();
    Decoder dec(resp);
    dec.u32(); // seq
    std::uint32_t code = dec.u32();
    if (!dec.ok()) {
        chan_.recycle(std::move(resp));
        Status s(Code::Unavailable, std::string("high-level API '") +
                                        name + "': truncated response");
        ++faults_seen_;
        observe(s);
        return Result<std::vector<std::uint8_t>>(std::move(s));
    }
    observe(Status::ok());
    CuResult r = toCuResult(code);
    if (r != CuResult::Success) {
        chan_.recycle(std::move(resp));
        Code c = r == CuResult::Unavailable ? Code::Unavailable
                                            : Code::NotFound;
        return Result<std::vector<std::uint8_t>>(
            Status(c, std::string("high-level API '") + name +
                          "' failed: " + cuResultName(r)));
    }
    // Hand back the remainder of the response after seq + status.
    std::vector<std::uint8_t> payload(resp.begin() + 8, resp.end());
    chan_.recycle(std::move(resp));
    return Result<std::vector<std::uint8_t>>(std::move(payload));
}

void
LakeLib::publishMetrics() const
{
    obs::Metrics &m = obs::Metrics::global();
    m.counter("remote.calls").set(calls_);
    m.counter("remote.bytes_marshalled").set(bytes_marshalled_);
    m.counter("remote.faults_seen").set(faults_seen_);
    m.counter("remote.retries").set(retries_);
    m.counter("remote.doorbells").set(doorbells_);
    m.counter("remote.batches_flushed").set(batches_flushed_);
    m.counter("remote.commands_batched").set(commands_batched_);
}

} // namespace lake::remote

// Tests for the pipelined remoting fast path (ISSUE 3): batched
// one-way command ordering, every flush trigger, interaction with the
// fault-injection / degraded-mode machinery of ISSUE 2, the
// malformed-batch corpus lakeD must survive, and the zero-allocation
// guarantee of the steady-state send path.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "base/rng.h"
#include "channel/fault.h"
#include "core/lake.h"
#include "remote/wire.h"

// ---------------------------------------------------------------------
// Global allocation counter for the zero-alloc test. Counting is off
// by default, so every other test in this binary is unaffected.
// ---------------------------------------------------------------------

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<std::size_t> g_allocs{0};

} // namespace

// noinline keeps GCC from pairing an inlined free() with the new
// expression at call sites and warning about mismatched allocators.
__attribute__((noinline)) void *
operator new(std::size_t n)
{
    if (g_count_allocs.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

__attribute__((noinline)) void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

__attribute__((noinline)) void
operator delete(void *p) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete[](void *p) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace lake {
namespace {

using channel::FaultSpec;
using gpu::CuResult;
using remote::ApiId;
using remote::Encoder;
using remote::makeCommand;
using remote::PipelineConfig;
using Dir = channel::Channel::Dir;

core::LakeConfig
pipelinedConfig(std::size_t max_batch = 16)
{
    core::LakeConfig cfg;
    cfg.pipeline.enabled = true;
    cfg.pipeline.max_batch = max_batch;
    return cfg;
}

gpu::LaunchConfig
vecAddLaunch(gpu::DevicePtr buf, std::size_t n)
{
    gpu::LaunchConfig cfg;
    cfg.kernel = "vec_add";
    cfg.grid_x = 1;
    cfg.block_x = static_cast<std::uint32_t>(n);
    cfg.arg(buf).arg(buf).arg(buf).arg(static_cast<std::uint64_t>(n),
                                       nullptr);
    return cfg;
}

// ---------------------------------------------------------------------
// Ordering
// ---------------------------------------------------------------------

TEST(PipelineOrderingTest, BatchedCopiesExecuteInIssueOrder)
{
    core::Lake lake(pipelinedConfig(16));
    gpu::DevicePtr dev = 0;
    ASSERT_EQ(lake.lib().cuMemAlloc(&dev, 64), CuResult::Success);

    // Two staging buffers with different fills, copied to the SAME
    // device range in issue order. Both copies ride one batch; if the
    // daemon replayed them out of order the first fill would win.
    shm::ShmOffset s1 = lake.arena().alloc(64);
    shm::ShmOffset s2 = lake.arena().alloc(64);
    std::memset(lake.arena().at(s1), 0x11, 64);
    std::memset(lake.arena().at(s2), 0x22, 64);

    EXPECT_EQ(lake.lib().cuMemcpyHtoDShmAsync(dev, s1, 64, 0),
              CuResult::Success);
    EXPECT_EQ(lake.lib().cuMemcpyHtoDShmAsync(dev, s2, 64, 0),
              CuResult::Success);
    EXPECT_EQ(lake.lib().cuStreamSynchronize(0), CuResult::Success);

    shm::ShmOffset out = lake.arena().alloc(64);
    ASSERT_EQ(lake.lib().cuMemcpyDtoHShm(out, dev, 64),
              CuResult::Success);
    const auto *p = static_cast<const std::uint8_t *>(lake.arena().at(out));
    for (int i = 0; i < 64; ++i)
        ASSERT_EQ(p[i], 0x22) << "byte " << i;
}

TEST(PipelineOrderingTest, BatchedLaunchesAllExecuteOnce)
{
    core::Lake lake(pipelinedConfig(16));
    gpu::DevicePtr dev = 0;
    ASSERT_EQ(lake.lib().cuMemAlloc(&dev, 64 * sizeof(float)),
              CuResult::Success);
    gpu::LaunchConfig launch = vecAddLaunch(dev, 64);

    std::uint64_t before = lake.device().launches();
    const int kLaunches = 40; // spans multiple batches of 16
    for (int i = 0; i < kLaunches; ++i)
        EXPECT_EQ(lake.lib().cuLaunchKernel(launch, 0), CuResult::Success);
    EXPECT_EQ(lake.lib().cuStreamSynchronize(0), CuResult::Success);

    EXPECT_EQ(lake.device().launches() - before, 40u);
    EXPECT_GE(lake.lib().commandsBatched(), 40u);
    // 40 one-ways at depth 16 = 2 full flushes + the sync's partial.
    EXPECT_EQ(lake.lib().batchesFlushed(), 3u);
    EXPECT_EQ(lake.daemon().batchesReceived(), 3u);
}

TEST(PipelineOrderingTest, PipelinedMatchesUnbatchedResults)
{
    auto run = [](bool pipelined) {
        core::Lake lake(pipelined ? pipelinedConfig(8)
                                  : core::LakeConfig{});
        gpu::DevicePtr dev = 0;
        EXPECT_EQ(lake.lib().cuMemAlloc(&dev, 64 * sizeof(float)),
                  CuResult::Success);
        shm::ShmOffset stage = lake.arena().alloc(64 * sizeof(float));
        auto *f = static_cast<float *>(lake.arena().at(stage));
        for (int i = 0; i < 64; ++i)
            f[i] = static_cast<float>(i);
        EXPECT_EQ(lake.lib().cuMemcpyHtoDShmAsync(dev, stage,
                                                  64 * sizeof(float), 0),
                  CuResult::Success);
        gpu::LaunchConfig launch = vecAddLaunch(dev, 64);
        for (int i = 0; i < 3; ++i)
            EXPECT_EQ(lake.lib().cuLaunchKernel(launch, 0),
                      CuResult::Success);
        EXPECT_EQ(lake.lib().cuStreamSynchronize(0), CuResult::Success);
        shm::ShmOffset out = lake.arena().alloc(64 * sizeof(float));
        EXPECT_EQ(lake.lib().cuMemcpyDtoHShm(out, dev, 64 * sizeof(float)),
                  CuResult::Success);
        const auto *of = static_cast<const float *>(lake.arena().at(out));
        return std::vector<float>(of, of + 64);
    };
    // Identical math either way: batching reorders nothing, it only
    // coalesces the wire traffic.
    EXPECT_EQ(run(false), run(true));
}

// ---------------------------------------------------------------------
// Flush triggers
// ---------------------------------------------------------------------

TEST(PipelineFlushTest, BatchDepthTriggersFlush)
{
    core::Lake lake(pipelinedConfig(4));
    gpu::DevicePtr dev = 0;
    ASSERT_EQ(lake.lib().cuMemAlloc(&dev, 64 * sizeof(float)),
              CuResult::Success);
    gpu::LaunchConfig launch = vecAddLaunch(dev, 64);

    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(lake.lib().cuLaunchKernel(launch, 0), CuResult::Success);
    EXPECT_EQ(lake.lib().pendingBatched(), 3u);
    EXPECT_EQ(lake.lib().batchesFlushed(), 0u);

    EXPECT_EQ(lake.lib().cuLaunchKernel(launch, 0), CuResult::Success);
    EXPECT_EQ(lake.lib().pendingBatched(), 0u);
    EXPECT_EQ(lake.lib().batchesFlushed(), 1u);
}

TEST(PipelineFlushTest, TwoWayCallFlushesPendingFirst)
{
    core::Lake lake(pipelinedConfig(16));
    gpu::DevicePtr dev = 0;
    ASSERT_EQ(lake.lib().cuMemAlloc(&dev, 64 * sizeof(float)),
              CuResult::Success);
    gpu::LaunchConfig launch = vecAddLaunch(dev, 64);
    std::uint64_t before = lake.device().launches();

    EXPECT_EQ(lake.lib().cuLaunchKernel(launch, 0), CuResult::Success);
    EXPECT_EQ(lake.lib().cuLaunchKernel(launch, 0), CuResult::Success);
    EXPECT_EQ(lake.lib().pendingBatched(), 2u);

    // A two-way RPC must drain the batch ahead of itself so the daemon
    // observes program order.
    gpu::DevicePtr dev2 = 0;
    EXPECT_EQ(lake.lib().cuMemAlloc(&dev2, 64), CuResult::Success);
    EXPECT_EQ(lake.lib().pendingBatched(), 0u);
    EXPECT_EQ(lake.lib().batchesFlushed(), 1u);
    EXPECT_EQ(lake.device().launches() - before, 2u);
}

TEST(PipelineFlushTest, ExplicitFlushDrainsAndEmptyFlushIsNoop)
{
    core::Lake lake(pipelinedConfig(16));
    gpu::DevicePtr dev = 0;
    ASSERT_EQ(lake.lib().cuMemAlloc(&dev, 64 * sizeof(float)),
              CuResult::Success);
    gpu::LaunchConfig launch = vecAddLaunch(dev, 64);
    std::uint64_t doorbells = lake.lib().doorbells();

    EXPECT_EQ(lake.lib().cuLaunchKernel(launch, 0), CuResult::Success);
    EXPECT_EQ(lake.lib().pendingBatched(), 1u);
    lake.lib().flush();
    EXPECT_EQ(lake.lib().pendingBatched(), 0u);
    EXPECT_EQ(lake.lib().batchesFlushed(), 1u);
    EXPECT_EQ(lake.lib().doorbells() - doorbells, 1u);

    // Nothing pending: no message, no doorbell.
    lake.lib().flush();
    EXPECT_EQ(lake.lib().batchesFlushed(), 1u);
    EXPECT_EQ(lake.lib().doorbells() - doorbells, 1u);
}

TEST(PipelineFlushTest, ReconfigureFlushesPending)
{
    core::Lake lake(pipelinedConfig(16));
    gpu::DevicePtr dev = 0;
    ASSERT_EQ(lake.lib().cuMemAlloc(&dev, 64 * sizeof(float)),
              CuResult::Success);
    gpu::LaunchConfig launch = vecAddLaunch(dev, 64);
    std::uint64_t before = lake.device().launches();

    EXPECT_EQ(lake.lib().cuLaunchKernel(launch, 0), CuResult::Success);
    EXPECT_EQ(lake.lib().pendingBatched(), 1u);

    lake.lib().setPipeline(PipelineConfig{}); // back to unbatched
    EXPECT_EQ(lake.lib().pendingBatched(), 0u);
    EXPECT_EQ(lake.lib().cuStreamSynchronize(0), CuResult::Success);
    EXPECT_EQ(lake.device().launches() - before, 1u);
}

TEST(PipelineFlushTest, DisabledPipelineSendsPerCommand)
{
    core::Lake lake(core::LakeConfig::paper()); // pipelining off
    gpu::DevicePtr dev = 0;
    ASSERT_EQ(lake.lib().cuMemAlloc(&dev, 64 * sizeof(float)),
              CuResult::Success);
    gpu::LaunchConfig launch = vecAddLaunch(dev, 64);
    std::uint64_t doorbells = lake.lib().doorbells();

    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(lake.lib().cuLaunchKernel(launch, 0), CuResult::Success);
    EXPECT_EQ(lake.lib().doorbells() - doorbells, 5u);
    EXPECT_EQ(lake.lib().commandsBatched(), 0u);
    EXPECT_EQ(lake.lib().batchesFlushed(), 0u);
    EXPECT_EQ(lake.daemon().batchesReceived(), 0u);
}

TEST(PipelineFlushTest, DeferredFreeRidesTheBatch)
{
    core::LakeConfig cfg = pipelinedConfig(16);
    cfg.pipeline.defer_frees = true;
    core::Lake lake(cfg);

    gpu::DevicePtr dev = 0;
    ASSERT_EQ(lake.lib().cuMemAlloc(&dev, 4096), CuResult::Success);
    std::uint64_t mem_before = lake.device().memUsed();

    // Deferred free returns Success immediately and stays pending...
    EXPECT_EQ(lake.lib().cuMemFree(dev), CuResult::Success);
    EXPECT_EQ(lake.lib().pendingBatched(), 1u);
    EXPECT_EQ(lake.device().memUsed(), mem_before);

    // ...until a sync point flushes it through the daemon.
    EXPECT_EQ(lake.lib().cuCtxSynchronize(), CuResult::Success);
    EXPECT_EQ(lake.lib().pendingBatched(), 0u);
    EXPECT_LT(lake.device().memUsed(), mem_before);
}

// ---------------------------------------------------------------------
// Fault interaction
// ---------------------------------------------------------------------

TEST(PipelineFaultTest, DroppedBatchIsLostAsAUnitAndNeverRetried)
{
    core::Lake lake(pipelinedConfig(4));
    gpu::DevicePtr dev = 0;
    ASSERT_EQ(lake.lib().cuMemAlloc(&dev, 64 * sizeof(float)),
              CuResult::Success);
    gpu::LaunchConfig launch = vecAddLaunch(dev, 64);

    // Healthy warmup batch.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(lake.lib().cuLaunchKernel(launch, 0), CuResult::Success);
    std::uint64_t after_warmup = lake.device().launches();
    EXPECT_EQ(after_warmup, 4u);

    // Drop everything: the next full batch vanishes in the channel.
    FaultSpec spec;
    spec.drop = 1.0;
    lake.channel().installFaults(spec);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(lake.lib().cuLaunchKernel(launch, 0), CuResult::Success);
    EXPECT_EQ(lake.device().launches(), after_warmup);

    // Transport restored: batches are one-way, so the lost one is
    // never re-sent — later traffic proceeds without it.
    lake.channel().faults()->disarm();
    EXPECT_EQ(lake.lib().cuStreamSynchronize(0), CuResult::Success);
    EXPECT_EQ(lake.device().launches(), after_warmup);
    std::uint64_t retries = lake.remoteStats().retries;
    EXPECT_EQ(retries, 0u);

    // And the daemon still serves fresh work.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(lake.lib().cuLaunchKernel(launch, 0), CuResult::Success);
    EXPECT_EQ(lake.lib().cuStreamSynchronize(0), CuResult::Success);
    EXPECT_EQ(lake.device().launches(), after_warmup + 4);
}

TEST(PipelineFaultTest, SyncTimeoutSurfacesLossAndLatchesDegraded)
{
    core::LakeConfig cfg = pipelinedConfig(8);
    cfg.degrade_threshold = 3;
    core::Lake lake(cfg);
    gpu::DevicePtr dev = 0;
    ASSERT_EQ(lake.lib().cuMemAlloc(&dev, 64 * sizeof(float)),
              CuResult::Success);
    gpu::LaunchConfig launch = vecAddLaunch(dev, 64);

    FaultSpec spec;
    spec.drop = 1.0;
    lake.channel().installFaults(spec);

    // Batched one-ways are fire-and-forget; the loss becomes visible
    // at the next synchronizing call, whose own RPC times out. Repeat
    // until the failure streak latches degraded mode — the ISSUE 2
    // contract must survive pipelining.
    for (int round = 0; round < 3; ++round) {
        EXPECT_EQ(lake.lib().cuLaunchKernel(launch, 0), CuResult::Success);
        EXPECT_NE(lake.lib().cuStreamSynchronize(0), CuResult::Success);
    }
    EXPECT_TRUE(lake.degraded());
    EXPECT_GT(lake.remoteStats().faults_seen, 0u);
}

TEST(PipelineFaultTest, FaultFreePipelinedRunSeesNoFaults)
{
    core::Lake lake(pipelinedConfig(8));
    gpu::DevicePtr dev = 0;
    ASSERT_EQ(lake.lib().cuMemAlloc(&dev, 64 * sizeof(float)),
              CuResult::Success);
    gpu::LaunchConfig launch = vecAddLaunch(dev, 64);
    for (int i = 0; i < 30; ++i)
        EXPECT_EQ(lake.lib().cuLaunchKernel(launch, 0), CuResult::Success);
    EXPECT_EQ(lake.lib().cuStreamSynchronize(0), CuResult::Success);
    EXPECT_EQ(lake.remoteStats().faults_seen, 0u);
    EXPECT_FALSE(lake.degraded());
    EXPECT_EQ(lake.device().launches(), 30u);
}

// ---------------------------------------------------------------------
// Malformed-batch corpus
// ---------------------------------------------------------------------

class MalformedBatchTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        ASSERT_EQ(lake_.lib().cuMemAlloc(&dev_, 64 * sizeof(float)),
                  CuResult::Success);
    }

    /** Assembles a batch message from pre-encoded command frames. */
    static std::vector<std::uint8_t>
    buildBatch(const std::vector<std::vector<std::uint8_t>> &frames,
               std::uint32_t declared_count)
    {
        Encoder enc;
        enc.u32(remote::kBatchMagic).u32(declared_count);
        for (const auto &f : frames) {
            enc.u32(static_cast<std::uint32_t>(f.size()));
            enc.raw(f.data(), f.size());
        }
        return enc.take();
    }

    /** One valid vec_add launch command frame. */
    std::vector<std::uint8_t>
    launchFrame(std::uint32_t seq)
    {
        Encoder e = makeCommand(ApiId::CuLaunchKernel, seq);
        e.str("vec_add").u32(1).u32(64);
        e.u32(4);
        e.u64(dev_).u64(dev_).u64(dev_).u64(64);
        e.u32(0);
        return e.take();
    }

    /** Feeds one raw buffer to lakeD and discards responses. */
    void inject(std::vector<std::uint8_t> buf)
    {
        lake_.channel().send(Dir::KernelToUser, std::move(buf));
        lake_.daemon().processPending();
        while (lake_.channel().tryRecv(Dir::UserToKernel))
            ;
    }

    /** lakeD must still serve well-formed traffic afterwards. */
    void expectDaemonStillHealthy()
    {
        (void)lake_.lib().cuCtxSynchronize(); // drain deferred errors
        EXPECT_EQ(lake_.lib().cuCtxSynchronize(), CuResult::Success);
        gpu::DevicePtr p = 0;
        EXPECT_EQ(lake_.lib().cuMemAlloc(&p, 256), CuResult::Success);
        EXPECT_EQ(lake_.lib().cuMemFree(p), CuResult::Success);
    }

    core::Lake lake_;
    gpu::DevicePtr dev_ = 0;
};

TEST_F(MalformedBatchTest, TruncationAtEveryByteBoundary)
{
    std::vector<std::uint8_t> batch =
        buildBatch({launchFrame(1), launchFrame(2), launchFrame(3)}, 3);
    for (std::size_t len = 0; len < batch.size(); ++len)
        inject(std::vector<std::uint8_t>(batch.begin(),
                                         batch.begin() + len));
    // Every truncation that cuts framing (not just a whole trailing
    // frame) is counted; none may crash or wedge the daemon.
    EXPECT_GT(lake_.daemon().malformedRejected(), 0u);
    expectDaemonStillHealthy();
}

TEST_F(MalformedBatchTest, GarbledCommandBodySkipsExactlyThatCommand)
{
    std::vector<std::vector<std::uint8_t>> frames = {
        launchFrame(1), launchFrame(2), launchFrame(3)};
    // Garble the middle command's kernel-name bytes (past the 8-byte
    // prologue and the string's own length prefix).
    frames[1][20] ^= 0xff;
    std::uint64_t before = lake_.device().launches();
    inject(buildBatch(frames, 3));
    // The length prefix still locates frame 3: commands 1 and 3 ran.
    EXPECT_EQ(lake_.device().launches() - before, 2u);
    expectDaemonStillHealthy();
}

TEST_F(MalformedBatchTest, OversizedLengthPrefixEndsBatchSafely)
{
    std::vector<std::vector<std::uint8_t>> frames = {
        launchFrame(1), launchFrame(2)};
    std::vector<std::uint8_t> batch = buildBatch(frames, 2);
    // Rewrite frame 2's length prefix to claim bytes past the buffer.
    std::size_t len2_at = 8 + 4 + frames[0].size();
    batch[len2_at] = 0xff;
    batch[len2_at + 1] = 0xff;
    batch[len2_at + 2] = 0xff;
    batch[len2_at + 3] = 0x7f;

    std::uint64_t before = lake_.device().launches();
    std::uint64_t malformed = lake_.daemon().malformedRejected();
    inject(std::move(batch));
    EXPECT_EQ(lake_.device().launches() - before, 1u);
    EXPECT_EQ(lake_.daemon().malformedRejected() - malformed, 1u);
    expectDaemonStillHealthy();
}

TEST_F(MalformedBatchTest, CountPastActualFramesEndsBatchSafely)
{
    std::uint64_t before = lake_.device().launches();
    std::uint64_t malformed = lake_.daemon().malformedRejected();
    inject(buildBatch({launchFrame(1), launchFrame(2)}, 5));
    EXPECT_EQ(lake_.device().launches() - before, 2u);
    EXPECT_EQ(lake_.daemon().malformedRejected() - malformed, 1u);
    expectDaemonStillHealthy();
}

TEST_F(MalformedBatchTest, TrailingBytesAfterDeclaredCountRejected)
{
    std::vector<std::uint8_t> batch =
        buildBatch({launchFrame(1), launchFrame(2)}, 1);
    std::uint64_t before = lake_.device().launches();
    std::uint64_t malformed = lake_.daemon().malformedRejected();
    inject(std::move(batch));
    // Only the declared command runs; the smuggled tail is counted and
    // never executed.
    EXPECT_EQ(lake_.device().launches() - before, 1u);
    EXPECT_EQ(lake_.daemon().malformedRejected() - malformed, 1u);
    expectDaemonStillHealthy();
}

TEST_F(MalformedBatchTest, EmptyBatchIsHarmless)
{
    std::uint64_t malformed = lake_.daemon().malformedRejected();
    inject(buildBatch({}, 0));
    EXPECT_EQ(lake_.daemon().malformedRejected(), malformed);
    expectDaemonStillHealthy();
}

TEST_F(MalformedBatchTest, SeededBitFlipsNeverPanicTheDaemon)
{
    Rng rng(99);
    std::vector<std::uint8_t> base =
        buildBatch({launchFrame(1), launchFrame(2), launchFrame(3)}, 3);
    for (int round = 0; round < 200; ++round) {
        std::vector<std::uint8_t> buf = base;
        int flips = rng.uniformInt(1, 8);
        for (int i = 0; i < flips; ++i) {
            std::size_t at = rng.uniformInt(0, buf.size() - 1);
            buf[at] ^= static_cast<std::uint8_t>(
                1u << rng.uniformInt(0, 7));
        }
        inject(std::move(buf));
    }
    expectDaemonStillHealthy();
}

TEST(BatchWireTest, MagicCannotCollideWithAnyApiId)
{
    // handleOne routes on the first u32: a batch header must never be
    // mistakable for a plain command prologue.
    for (std::uint32_t id = 0; id <= 64; ++id)
        ASSERT_NE(remote::kBatchMagic, id);
}

// ---------------------------------------------------------------------
// Zero-allocation steady state
// ---------------------------------------------------------------------

/**
 * A hand-wired stack whose doorbell can be muted, so the counting
 * window isolates lakeLib's send path (encode, batch append, channel
 * send) from lakeD's dispatch — whose BusyTracker legitimately grows
 * a span vector as simulated time accumulates.
 */
struct ZeroAllocRig
{
    Clock clock;
    shm::ShmArena arena{1 << 20};
    gpu::Device device{gpu::DeviceSpec::a100()};
    channel::Channel chan{channel::Kind::Netlink, clock};
    remote::LakeDaemon daemon{chan, arena, device, clock};
    bool pump = true;
    remote::LakeLib lib{chan, arena, [this] {
                            if (pump)
                                daemon.processPending();
                        }};
};

TEST(PipelineZeroAllocTest, SteadyStateSendPathDoesNotAllocate)
{
    // Capture-free body/cost so the kernel itself cannot allocate.
    gpu::KernelRegistry::global().add(
        "pipe_noop",
        [](gpu::Device &, const gpu::LaunchConfig &) {
            return CuResult::Success;
        },
        [](const gpu::Device &, const gpu::LaunchConfig &) -> Nanos {
            return 0;
        });

    ZeroAllocRig rig;
    PipelineConfig p;
    p.enabled = true;
    p.max_batch = 16;
    rig.lib.setPipeline(p);

    gpu::DevicePtr dev = 0;
    ASSERT_EQ(rig.lib.cuMemAlloc(&dev, 64), CuResult::Success);
    shm::ShmOffset stage = rig.arena.alloc(64);
    std::memset(rig.arena.at(stage), 0x5a, 64);
    gpu::LaunchConfig launch;
    launch.kernel = "pipe_noop";

    // Warm up: grows the encoder scratch, the channel buffer pool and
    // the daemon's scratch to steady-state capacity.
    for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 12; ++i)
            ASSERT_EQ(rig.lib.cuLaunchKernel(launch, 0),
                      CuResult::Success);
        for (int i = 0; i < 4; ++i)
            ASSERT_EQ(rig.lib.cuMemcpyHtoDShmAsync(dev, stage, 64, 0),
                      CuResult::Success);
    }
    ASSERT_EQ(rig.lib.cuStreamSynchronize(0), CuResult::Success);
    ASSERT_EQ(rig.lib.pendingBatched(), 0u);

    // Strict check: 15 steady-state enqueues (one short of the flush
    // threshold) must perform ZERO heap allocations — the per-command
    // cost of the pipelined send path.
    g_allocs.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    for (int i = 0; i < 12; ++i)
        rig.lib.cuLaunchKernel(launch, 0);
    for (int i = 0; i < 3; ++i)
        rig.lib.cuMemcpyHtoDShmAsync(dev, stage, 64, 0);
    g_count_allocs.store(false, std::memory_order_relaxed);
    EXPECT_EQ(rig.lib.pendingBatched(), 15u);
    EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0u);

    // Per-batch check: completing the batch — the flush, the pooled-
    // buffer channel send — stays allocation-free too. The doorbell is
    // muted so lakeD's dispatch (which may grow its busy-span log) is
    // outside the window; the message waits in the channel.
    rig.pump = false;
    g_allocs.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    rig.lib.cuLaunchKernel(launch, 0); // 16th command: triggers flush
    g_count_allocs.store(false, std::memory_order_relaxed);
    EXPECT_EQ(rig.lib.pendingBatched(), 0u);
    // The encoder and the message buffer are recycled capacity (zero
    // allocs); the one tolerated allocation is a deque node page the
    // channel queue may add when the push lands on a node boundary —
    // amortized over many batches, not a per-command or even a
    // per-batch cost.
    EXPECT_LE(g_allocs.load(std::memory_order_relaxed), 1u);

    // The muted batch is intact: pump it and confirm all 16 commands
    // of this round executed (the daemon side is correct, merely not
    // part of the send-path measurement).
    rig.pump = true;
    std::uint64_t before = rig.device.launches();
    rig.daemon.processPending();
    EXPECT_EQ(rig.device.launches() - before, 13u);
    EXPECT_EQ(rig.lib.cuStreamSynchronize(0), CuResult::Success);
}

} // namespace
} // namespace lake

#ifndef LAKE_REMOTE_LAKELIB_H
#define LAKE_REMOTE_LAKELIB_H

/**
 * @file
 * lakeLib: the kernel-side API provider.
 *
 * "lakeLib is a kernel module that exposes APIs such as the vendor's
 * user space library of an accelerator as symbols to kernel space"
 * (§4). Each method here is one exported symbol: it serializes an API
 * identifier plus parameters into a command, ships it over the channel,
 * rings the doorbell that wakes lakeD, and blocks (in virtual time) on
 * the response.
 *
 * Bulk data has two paths, matching §4.1's operation classes:
 *  - *marshalled*: the buffer rides inside the command and is copied at
 *    each boundary — the "extra data copies" LAKE exists to avoid;
 *  - *shm* (copiable memory allocations): the buffer lives in lakeShm
 *    and only its offset crosses, the zero-copy fast path.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/status.h"
#include "base/time.h"
#include "channel/channel.h"
#include "gpu/device.h"
#include "gpu/kernels.h"
#include "remote/wire.h"
#include "shm/arena.h"

namespace lake::remote {

/** GPU utilization pair returned by the remoted NVML query. */
struct RemoteUtilization
{
    float gpu = 0.0f;
    float memory = 0.0f;
};

/**
 * Bounded retry-with-backoff for *idempotent* remoted calls.
 *
 * Only calls whose re-execution is harmless retry (memcpys, NVML
 * queries); allocation and synchronization calls fail fast because a
 * lost response leaves daemon-side state the kernel cannot see.
 */
struct RetryPolicy
{
    /** Total attempts, including the first (1 = never retry). */
    std::uint32_t max_attempts = 1;
    /** Virtual-time wait before the first retry. */
    Nanos backoff = 100_us;
    /** Backoff growth factor per further retry. */
    double multiplier = 2.0;
};

/**
 * Command pipelining (NVMe-style doorbell coalescing; the AvA batching
 * insight applied to LAKE's one-way traffic), on by default.
 *
 * One-way commands — kernel launches, async shm memcpys, and
 * (optionally) deferred frees — are queued locally instead of sent one
 * message each. The next synchronizing call carries them: its own frame
 * closes the queued batch, and the whole batch travels as one message
 * behind one doorbell, so a launch-and-read-back costs one round trip.
 * The batch also ships on its own at @ref max_batch queued commands or
 * at an explicit LakeLib::flush().
 *
 * core::LakeConfig::paper() turns it off: one message and one doorbell
 * per command, the paper's remoting, which the figure reproductions use
 * so their virtual-time numbers stay the paper's.
 *
 * Failure semantics (DESIGN.md §6): a batch is one message, lost or
 * delivered as a unit. Its one-way contents are non-idempotent, so it
 * is never re-sent. A batch that rides a synchronizing call makes that
 * call one non-idempotent unit too: it is never retried, and its loss
 * returns Unavailable to the caller (timeout, fault count, degraded
 * latch) instead of leaving later calls to read stale device memory.
 * A batch flushed on its own behaves like an unbatched one-way post:
 * its loss surfaces, if at all, at the next synchronizing call.
 */
struct PipelineConfig
{
    /** Master switch; everything below is inert while false. */
    bool enabled = true;
    /** Queued one-way commands that force a flush (min 1). */
    std::size_t max_batch = 16;
    /**
     * Route cuMemFree through the batch as a one-way deferred free.
     * The call then returns Success immediately and a daemon-side
     * failure surfaces at the next synchronizing call.
     */
    bool defer_frees = false;
};

/**
 * Kernel-space stub library.
 */
class LakeLib
{
  public:
    /**
     * Wakes the daemon to drain the command queue. In the real system
     * this is the Netlink doorbell; here the LAKE core wires it to
     * LakeDaemon::processPending so the synchronous RPC completes
     * within the caller's turn.
     */
    using Doorbell = std::function<void()>;

    /**
     * Invoked with the final outcome of every round-trip RPC —
     * Status::ok() on success, the transport error otherwise (after
     * retries are exhausted). The LAKE core uses it to latch degraded
     * mode after repeated failures.
     */
    using FailureObserver = std::function<void(const Status &)>;

    /** Round trips a response may take before the caller gives up. */
    static constexpr Nanos kTimeoutRounds = 4;

    /**
     * @param chan     command channel shared with lakeD
     * @param arena    lakeShm region
     * @param doorbell daemon wakeup
     */
    LakeLib(channel::Channel &chan, shm::ShmArena &arena,
            Doorbell doorbell);

    /// @name CUDA driver API exported to kernel space
    /// @{

    /** cuMemAlloc. */
    gpu::CuResult cuMemAlloc(gpu::DevicePtr *out, std::size_t bytes);
    /** cuMemFree. */
    gpu::CuResult cuMemFree(gpu::DevicePtr ptr);

    /** cuMemcpyHtoD from an ordinary kernel buffer (marshalled). */
    gpu::CuResult cuMemcpyHtoD(gpu::DevicePtr dst, const void *src,
                               std::size_t bytes);
    /** cuMemcpyDtoH into an ordinary kernel buffer (marshalled). */
    gpu::CuResult cuMemcpyDtoH(void *dst, gpu::DevicePtr src,
                               std::size_t bytes);

    /** cuMemcpyHtoD from a lakeShm buffer (zero-copy). */
    gpu::CuResult cuMemcpyHtoDShm(gpu::DevicePtr dst, shm::ShmOffset src,
                                  std::size_t bytes);
    /** cuMemcpyDtoH into a lakeShm buffer (zero-copy). */
    gpu::CuResult cuMemcpyDtoHShm(shm::ShmOffset dst, gpu::DevicePtr src,
                                  std::size_t bytes);
    /**
     * Stream-0 HtoD from lakeShm, ordered before the caller's later
     * stream-0 work. With pipelining on it is the one-way
     * cuMemcpyHtoDShmAsync on stream 0 (its failure surfaces at the
     * next synchronizing call, which it rides); with pipelining off it
     * is the synchronous cuMemcpyHtoDShm.
     */
    gpu::CuResult cuMemcpyHtoDShmOrdered(gpu::DevicePtr dst,
                                         shm::ShmOffset src,
                                         std::size_t bytes);
    /** Stream-0 DtoH into lakeShm; one-way or synchronous like
     *  cuMemcpyHtoDShmOrdered. */
    gpu::CuResult cuMemcpyDtoHShmOrdered(shm::ShmOffset dst,
                                         gpu::DevicePtr src,
                                         std::size_t bytes);
    /**
     * Async HtoD from lakeShm on @p stream. One-way command: always
     * returns Success; failures surface at the next synchronizing call.
     */
    gpu::CuResult cuMemcpyHtoDShmAsync(gpu::DevicePtr dst,
                                       shm::ShmOffset src,
                                       std::size_t bytes,
                                       std::uint32_t stream);
    /** Async DtoH into lakeShm on @p stream (one-way, like HtoD). */
    gpu::CuResult cuMemcpyDtoHShmAsync(shm::ShmOffset dst,
                                       gpu::DevicePtr src,
                                       std::size_t bytes,
                                       std::uint32_t stream);

    /**
     * cuLaunchKernel. One-way: always returns Success; launch failures
     * (unknown kernel, bad pointers) are reported by the next
     * synchronizing call, matching CUDA's asynchronous-error contract.
     */
    gpu::CuResult cuLaunchKernel(const gpu::LaunchConfig &cfg,
                                 std::uint32_t stream = 0);
    /** cuStreamSynchronize. */
    gpu::CuResult cuStreamSynchronize(std::uint32_t stream);
    /** cuCtxSynchronize. */
    gpu::CuResult cuCtxSynchronize();

    /**
     * cuSetDevice: selects which of a multi-device daemon's devices
     * subsequent commands execute on. Single-device stacks never call
     * this (remote::LakeShard elides the no-op switch), keeping their
     * wire traffic bit-identical to the pre-fleet protocol.
     */
    gpu::CuResult cuSetDevice(std::uint32_t device);

    /// @}

    /** Remoted nvmlDeviceGetUtilizationRates. */
    gpu::CuResult nvmlGetUtilization(RemoteUtilization *out);

    /**
     * Invokes a high-level API (§4.4) by name with opaque arguments.
     * @param idempotent true when the handler may safely re-execute;
     *        enables the retry policy for this call
     * @return the handler's response payload on success.
     */
    Result<std::vector<std::uint8_t>>
    highLevelCall(const std::string &name,
                  const std::vector<std::uint8_t> &args,
                  bool idempotent = false);

    /** The lakeShm arena (kernel code allocates staging buffers here). */
    shm::ShmArena &arena() { return arena_; }

    /** Installs the retry policy for idempotent calls. */
    void setRetryPolicy(RetryPolicy p) { retry_ = p; }
    /** Retry policy in force. */
    const RetryPolicy &retryPolicy() const { return retry_; }

    /**
     * Installs the pipelining configuration. Flushes any pending batch
     * first, so reconfiguration never strands queued commands.
     */
    void setPipeline(PipelineConfig p);
    /** Pipeline configuration in force. */
    const PipelineConfig &pipeline() const { return pipeline_; }

    /**
     * Ships the pending one-way batch (if any) as one channel message
     * and rings the doorbell once. No-op when nothing is queued.
     */
    void flush();

    /** One-way commands queued but not yet flushed. */
    std::size_t pendingBatched() const { return batch_pending_; }

    /** Installs (or clears, with nullptr) the RPC outcome observer. */
    void setFailureObserver(FailureObserver obs);

    /**
     * Virtual-time deadline after which a missing response counts as
     * lost: a few CostModel round trips plus the doorbell latency.
     */
    Nanos responseTimeout(std::size_t cmd_bytes) const;

    /** Remoted calls issued since construction (retries included). */
    std::uint64_t calls() const { return calls_; }
    /** Bytes marshalled through command payloads (not shm). */
    std::uint64_t bytesMarshalled() const { return bytes_marshalled_; }
    /** Failed RPC attempts observed (timeouts, corrupt responses). */
    std::uint64_t faultsSeen() const { return faults_seen_; }
    /** Retry attempts issued by the retry policy. */
    std::uint64_t retries() const { return retries_; }
    /** Doorbell rings since construction (the coalescing win). */
    std::uint64_t doorbells() const { return doorbells_; }
    /** Batch messages flushed by the pipeline. */
    std::uint64_t batchesFlushed() const { return batches_flushed_; }
    /** One-way commands that rode a batch instead of their own
     *  message. */
    std::uint64_t commandsBatched() const { return commands_batched_; }

    /**
     * Mirrors the counters above into the obs::Metrics registry under
     * "remote.*" names (the RemoteStats facade). Cheap; benches call
     * it right before exporting metrics.
     */
    void publishMetrics() const;

  private:
    /**
     * Starts a command in the reusable scratch encoder: resets it and
     * writes the ApiId + a fresh seq. Every stub encodes through this,
     * so steady-state traffic allocates nothing on the send side.
     */
    Encoder &begin(ApiId id);

    /**
     * Sends the scratch command (retrying per policy when
     * @p idempotent), wakes the daemon, and returns the response
     * positioned after the verified sequence echo — or the transport
     * error the caller must handle: seq mismatch, short/garbled
     * response, or timeout. When one-way commands are pending the
     * command joins their batch as its last frame, so they execute
     * before it, in submission order, and the batch travels in this
     * call's message; such a call is never retried.
     */
    Result<std::vector<std::uint8_t>> rpc(bool idempotent);

    /**
     * One send/receive attempt of rpc, no retries: sends @p msg (the
     * scratch command, or the batch it closes) and waits for @p seq.
     */
    Result<std::vector<std::uint8_t>> attempt(const Encoder &msg,
                                              std::uint32_t seq);

    /** Runs an RPC whose response is just a status code. */
    gpu::CuResult statusRpc(bool idempotent);

    /**
     * Ships the scratch command one-way: queued into the pending batch
     * when pipelining is on (flushing at max_batch), sent as its own
     * message + doorbell otherwise.
     */
    void post();

    /**
     * Appends the scratch command to the pending batch as a
     * length-prefixed frame, opening the batch when none is pending.
     */
    void enqueue();

    /**
     * Closes the pending batch for sending: patches its frame count and
     * counts it as flushed. The bytes stay in batch_enc_ until the next
     * enqueue() opens a new batch.
     */
    void sealBatch();

    /** Rings the daemon doorbell (counted). */
    void ring();

    /** Reports an RPC outcome to the observer (when installed). */
    void observe(const Status &s);

    /**
     * Records a response that echoed the right seq but failed to
     * decode — counted as a fault and reported to the observer, since
     * a garbling transport is as unhealthy as a dropping one.
     */
    gpu::CuResult garbled(const char *what);

    channel::Channel &chan_;
    shm::ShmArena &arena_;
    Doorbell doorbell_;
    RetryPolicy retry_;
    PipelineConfig pipeline_;
    FailureObserver observer_;

    /** Scratch encoder for the command being built (reset per call). */
    Encoder cmd_enc_;
    /**
     * Pending batch: kBatchMagic, a count placeholder patched when the
     * batch is sealed, then the queued frames. Reset (capacity
     * retained) when the next batch opens.
     */
    Encoder batch_enc_;
    std::size_t batch_pending_ = 0;

    /** ApiId of the command in the scratch encoder (set by begin()). */
    std::uint32_t cur_api_ = 0;
    /** Display name matching cur_api_ (borrowed literal). */
    const char *cur_api_name_ = "?";

    std::uint32_t next_seq_ = 1;
    std::uint64_t calls_ = 0;
    std::uint64_t bytes_marshalled_ = 0;
    std::uint64_t faults_seen_ = 0;
    std::uint64_t retries_ = 0;
    std::uint64_t doorbells_ = 0;
    std::uint64_t batches_flushed_ = 0;
    std::uint64_t commands_batched_ = 0;
};

} // namespace lake::remote

#endif // LAKE_REMOTE_LAKELIB_H

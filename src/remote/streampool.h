#ifndef LAKE_REMOTE_STREAMPOOL_H
#define LAKE_REMOTE_STREAMPOOL_H

/**
 * @file
 * StreamOrchestrator: streaming DMA orchestration over the remoting
 * fast path (DESIGN.md §10).
 *
 * PR 3 made commands cheap; the next ceiling is the data path itself:
 * every steady-state request still pays alloc -> HtoD -> kernel ->
 * DtoH -> free serially on stream 0, with a fresh lakeShm allocation
 * per transfer. This layer supplies the three missing mechanisms the
 * DMA-streaming literature prescribes as kernel-level orchestration:
 *
 *  - a recycling **buffer pool** carved from the ShmArena once at
 *    construction: fixed-size-class rings with O(1) acquire/release,
 *    so the steady-state path performs zero arena alloc/free calls
 *    and zero cuMemAlloc/cuMemFree RPCs;
 *  - **credit-based flow control**: each pooled buffer is a credit.
 *    When a producer outruns the device, acquire() blocks in virtual
 *    time by synchronizing the stream owning the oldest in-flight
 *    buffer (tryAcquire() sheds instead), so a burst can never exhaust
 *    the arena;
 *  - **multi-stream pipelining**: work round-robins across K
 *    gpu::StreamIds. Per-stream completion times are independent while
 *    the copy and compute engines serialize FIFO, so HtoD(i+1)
 *    overlaps kernel(i) overlaps DtoH(i-1) on the modeled timelines —
 *    plus scatter-gather submission (gatherIn) that coalesces many
 *    small feature vectors into one strided copy.
 *
 * Opt-in via core::LakeConfig.streaming; nothing here runs unless a
 * caller asks for it.
 */

#include <cstdint>
#include <vector>

#include "base/status.h"
#include "base/time.h"
#include "gpu/context.h"
#include "remote/lakelib.h"
#include "shm/arena.h"

namespace lake::remote {

/**
 * Streaming DMA knobs (core::LakeConfig.streaming; default off, so all
 * existing virtual-time numbers are unchanged unless a caller opts in).
 */
struct StreamingConfig
{
    /** Master switch; everything below is inert while false. */
    bool enabled = false;
    /** Streams to round-robin across (K >= 1). */
    std::uint32_t streams = 4;
    /**
     * Buffers per size class (the credit budget per class). Clamped up
     * to >= streams at construction: with fewer credits than streams,
     * a stalled acquire() would recycle a buffer whose stream the
     * caller has not synchronized — and therefore not read — yet.
     */
    std::size_t pool_buffers = 4;
    /** Capacity of the smallest size class, bytes. */
    std::size_t class_bytes = 64ull << 10;
    /** Size classes; class i holds buffers of class_bytes << i. */
    std::size_t size_classes = 3;
};

/**
 * Streaming DMA orchestrator bound to one LakeLib.
 *
 * Single-owner discipline (matching the kernel-side call sites): one
 * execution context drives acquire/stage/sync. Buffers staged in or
 * out become *in flight* on their stream and return to the free ring
 * when that stream synchronizes — including when the sync itself fails
 * (a dropped response must not leak the credit). After syncStream
 * returns, the caller may read retired buffers' shm contents until its
 * next acquire() of the same class ("read-after-sync window"). The
 * constructor clamps pool_buffers >= streams so a depth-1-per-stream
 * producer that harvests each stream before reusing it never trips a
 * credit stall — a stalled acquire() closes the window for buffers the
 * caller never had a chance to read.
 */
class StreamOrchestrator
{
  public:
    /** First StreamId used; stream 0 stays legacy default-stream. */
    static constexpr gpu::StreamId kStreamBase = 1;

    /** One pooled buffer (a slice of the arena carved at boot). */
    struct Buffer
    {
        shm::ShmOffset shm = shm::kNullOffset;
        std::size_t capacity = 0;
        std::uint32_t cls = 0;       //!< size class
        std::uint32_t slot = 0;      //!< global slot id
        bool held = false;           //!< acquired, not yet staged
        bool in_flight = false;      //!< staged, awaiting stream sync
        gpu::StreamId stream = 0;    //!< binding while in flight
        std::uint64_t stage_seq = 0; //!< stage order (oldest-first)
    };

    /** Lifetime counters (always maintained; obs mirrors them). */
    struct Stats
    {
        std::uint64_t acquires = 0;
        std::uint64_t releases = 0; //!< returns to the ring (all paths)
        std::uint64_t credit_stalls = 0;
        std::uint64_t sheds = 0;
        std::uint64_t gathers = 0;
        std::uint64_t gathered_vectors = 0;
        std::uint64_t stage_ins = 0;
        std::uint64_t stage_outs = 0;
        std::uint64_t syncs = 0;
        std::uint64_t sync_failures = 0;
        Nanos stalled_ns = 0; //!< virtual time blocked in credit stalls
    };

    /**
     * Carves the pool out of @p lib's arena (one allocation per
     * buffer, never repeated) and validates the configuration.
     */
    StreamOrchestrator(LakeLib &lib, Clock &clock, StreamingConfig cfg);

    /** Drains in-flight work and returns the carve-out to the arena. */
    ~StreamOrchestrator();

    StreamOrchestrator(const StreamOrchestrator &) = delete;
    StreamOrchestrator &operator=(const StreamOrchestrator &) = delete;

    /** Configuration in force. */
    const StreamingConfig &config() const { return cfg_; }
    /** Streams being round-robined. */
    std::uint32_t streams() const { return cfg_.streams; }

    /** Stream for pipeline position @p k (round-robin). */
    gpu::StreamId
    streamAt(std::uint64_t k) const
    {
        return kStreamBase + static_cast<gpu::StreamId>(k % cfg_.streams);
    }

    /** Next stream in round-robin order. */
    gpu::StreamId nextStream() { return streamAt(ticket_++); }

    /**
     * O(1) acquire of a buffer with capacity >= @p bytes from the
     * smallest sufficient size class. When the class ring is dry,
     * blocks in virtual time (credit stall): synchronizes the stream
     * owning the class's oldest in-flight buffer, which retires that
     * stream's buffers and replenishes the ring.
     * @return nullptr when no class fits @p bytes, or when the ring is
     *         dry with nothing in flight to wait for (the caller holds
     *         every credit).
     */
    Buffer *acquire(std::size_t bytes);

    /** Non-blocking acquire: sheds (returns nullptr) instead of
     *  stalling. */
    Buffer *tryAcquire(std::size_t bytes);

    /** Returns a held (never-staged) buffer to its ring. */
    void release(Buffer *b);

    /**
     * Posts one async HtoD of @p bytes from @p b to @p dst on stream
     * @p s and marks @p b in flight there. One-way: transport failures
     * surface at the next synchronizing call.
     */
    Status stageIn(Buffer *b, gpu::DevicePtr dst, std::size_t bytes,
                   gpu::StreamId s);

    /** Async DtoH from @p src into @p b on stream @p s. */
    Status stageOut(Buffer *b, gpu::DevicePtr src, std::size_t bytes,
                    gpu::StreamId s);

    /**
     * Scatter-gather submission: copies @p n small vectors into @p b
     * back to back (host bookkeeping, like all shm staging) and posts
     * ONE strided HtoD of their total size — the coalescing that turns
     * n tiny transfers into one.
     */
    Status gatherIn(Buffer *b, gpu::DevicePtr dst,
                    const void *const *srcs, const std::size_t *lens,
                    std::size_t n, gpu::StreamId s);

    /**
     * Synchronizes stream @p s and retires every buffer in flight on
     * it back to its free ring. Credits are released even when the
     * sync fails (degraded transport must not leak buffers); the
     * CuResult still reports the failure so callers can latch
     * degraded mode.
     */
    gpu::CuResult syncStream(gpu::StreamId s);

    /** Synchronizes every stream with in-flight buffers. */
    gpu::CuResult drain();

    /** Buffers currently in a free ring (pool occupancy). */
    std::size_t freeBuffers() const;
    /** Total pooled buffers across all classes. */
    std::size_t
    totalBuffers() const
    {
        return buffers_.size();
    }

    /** Lifetime counters. */
    const Stats &stats() const { return stats_; }

    /**
     * Mirrors the counters into obs::Metrics ("dma.*" families) and
     * refreshes the pool-occupancy gauges. Benches call it right
     * before exporting; a no-op while metrics are disabled.
     */
    void publishMetrics() const;

  private:
    /** Fixed-capacity FIFO ring of slot ids (one per size class). */
    struct Ring
    {
        std::vector<std::uint32_t> slots;
        std::size_t head = 0;
        std::size_t count = 0;
    };

    /** Smallest class whose capacity fits @p bytes; -1 when none. */
    int classFor(std::size_t bytes) const;

    /** Pops a free slot from @p cls (must be non-empty). */
    Buffer *popFree(int cls);

    /** Pushes @p slot back onto its class ring. */
    void pushFree(std::uint32_t slot);

    /** Marks @p b in flight on @p s (stage bookkeeping). */
    void bind(Buffer *b, gpu::StreamId s);

    /** Refreshes the pool-occupancy gauge (when metrics enabled). */
    void updateGauge() const;

    LakeLib &lib_;
    shm::ShmArena &arena_;
    Clock &clock_;
    StreamingConfig cfg_;

    std::vector<Buffer> buffers_;
    std::vector<Ring> rings_; //!< one per size class
    std::uint64_t ticket_ = 0;
    std::uint64_t next_stage_seq_ = 1;
    /** Virtual time each stream's current sync window opened. */
    std::vector<Nanos> window_start_;

    Stats stats_;
};

} // namespace lake::remote

#endif // LAKE_REMOTE_STREAMPOOL_H

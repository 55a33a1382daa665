#ifndef LAKE_CORE_LAKE_H
#define LAKE_CORE_LAKE_H

/**
 * @file
 * The LAKE runtime: one object that boots and wires every component of
 * Fig. 2 — the shared-memory region (lakeShm), the command channel,
 * the user-space daemon (lakeD), the kernel-side stub library
 * (lakeLib), the accelerator, and the feature-registry manager.
 *
 * This is the public entry point of the library:
 *
 * @code
 *   lake::core::Lake lake;                       // boot everything
 *   auto &lib = lake.lib();                      // kernel-space view
 *   gpu::DevicePtr p;
 *   lib.cuMemAlloc(&p, 4096);                    // remoted to lakeD
 * @endcode
 */

#include <atomic>
#include <memory>

#include "base/time.h"
#include "channel/channel.h"
#include "gpu/device.h"
#include "gpu/fleet.h"
#include "gpu/spec.h"
#include "remote/fleet.h"
#include "ml/backends.h"
#include "obs/obs.h"
#include "policy/policy.h"
#include "registry/manager.h"
#include "remote/daemon.h"
#include "remote/lakelib.h"
#include "remote/streampool.h"
#include "shm/arena.h"

namespace lake::core {

/** Boot-time configuration. */
struct LakeConfig
{
    /** Command transport (§6 picks Netlink). */
    channel::Kind channel = channel::Kind::Netlink;
    /** lakeShm region size (the paper boots with cma=128M). */
    std::size_t shm_bytes = 128ull << 20;
    /** Accelerator model. */
    gpu::DeviceSpec device = gpu::DeviceSpec::a100();
    /** Host CPU model (for in-kernel fallback execution). */
    gpu::CpuSpec cpu = gpu::CpuSpec::xeonGold6226R();
    /**
     * Consecutive remoting failures that latch degraded mode (CPU-only
     * policies). 0 disables degradation entirely.
     */
    std::size_t degrade_threshold = 3;
    /** Retry policy installed into lakeLib at boot. */
    remote::RetryPolicy retry;
    /**
     * Command pipelining installed into lakeLib (and every fleet
     * shard's lakeLib) at boot. On by default: a batch's one-way
     * commands ride its closing synchronizing call, one message and
     * one doorbell per round trip. paper() turns it off.
     */
    remote::PipelineConfig pipeline;
    /**
     * Observability (tracing + metrics), default fully off. When
     * obs.trace is set the Tracer is bound to this Lake's clock so
     * clock-less instrumentation sites can timestamp their events.
     */
    obs::ObsConfig obs;
    /**
     * Async batched scoring service (DESIGN.md §7), default off: with
     * scoring.enabled false nothing is constructed and every
     * score_features_async call degrades to synchronous inline
     * scoring, so existing virtual-time numbers are unchanged unless
     * a caller opts in.
     */
    registry::ScoringConfig scoring;
    /**
     * Streaming DMA orchestration (DESIGN.md §10), default off: with
     * streaming.enabled false no orchestrator is constructed, no pool
     * is carved from the arena, and every data-path number is
     * unchanged unless a caller opts in.
     */
    remote::StreamingConfig streaming;
    /**
     * Sharded multi-device fleet (DESIGN.md §13), default off: with
     * fleet.enabled false no extra device, shard, or router is
     * constructed and the single-device stack above is bit-identical
     * to the pre-fleet runtime. When enabled, boot builds
     * fleet.devices simulated devices, each modeled by `device`, in
     * disjoint VA windows, fleet.shards lakeD worker shards over
     * them, and a FleetRouter whose policies place work per device.
     */
    gpu::FleetConfig fleet;

    /**
     * The paper's remoting: every command is its own Netlink message
     * and doorbell (pipelining off). The figure and table
     * reproductions boot with it so their virtual-time numbers are the
     * paper's; everything else matches the defaults.
     */
    static LakeConfig
    paper()
    {
        LakeConfig c;
        c.pipeline.enabled = false;
        return c;
    }
};

/** Remoting-health counters surfaced for tests and benches. */
struct RemoteStats
{
    /** Failed RPC attempts lakeLib observed. */
    std::uint64_t faults_seen = 0;
    /** Retry attempts lakeLib issued. */
    std::uint64_t retries = 0;
    /** Inference dispatches forced onto the CPU by degradation. */
    std::uint64_t fallbacks = 0;
    /** True once degraded mode latched. */
    bool degraded = false;
};

/**
 * A booted LAKE system sharing one virtual clock.
 */
class Lake
{
  public:
    /** Boots with the given configuration. */
    explicit Lake(LakeConfig config = LakeConfig{});

    /**
     * Unbinds the Tracer from this Lake's clock (if the config bound
     * it) and, when the config names a trace_path, writes the Chrome
     * trace there so a crashing bench still leaves its trace behind.
     */
    ~Lake();

    /** The system-wide virtual clock. */
    Clock &clock() { return clock_; }
    /** The lakeShm arena (shared by both sides). */
    shm::ShmArena &arena() { return arena_; }
    /** The accelerator. */
    gpu::Device &device() { return device_; }
    /** The command channel. */
    channel::Channel &channel() { return channel_; }
    /** lakeD, the user-space API executor. */
    remote::LakeDaemon &daemon() { return daemon_; }
    /** lakeLib, the kernel-space stubs. */
    remote::LakeLib &lib() { return lib_; }
    /** Feature registries and models (Table 1). */
    registry::RegistryManager &registries() { return registries_; }
    /** Kernel-context CPU compute model. */
    ml::KernelCpu &kernelCpu() { return kernel_cpu_; }
    /**
     * The streaming DMA orchestrator, or nullptr when
     * config.streaming.enabled is false (the default).
     */
    remote::StreamOrchestrator *streaming() { return streaming_.get(); }
    /** Configuration in force. */
    const LakeConfig &config() const { return config_; }

    /// @name Device fleet (DESIGN.md §13); null unless fleet.enabled
    /// @{

    /** The device fleet, or nullptr (the default single-device path). */
    gpu::DeviceFleet *fleet() { return fleet_.get(); }
    /** The lakeD worker shards, or nullptr. */
    remote::ShardFleet *shardFleet() { return shards_.get(); }
    /** The placement router, or nullptr. */
    remote::FleetRouter *router() { return router_.get(); }

    /**
     * Remoting-health counters of one shard. Per-shard on purpose
     * (the bugfix this PR carries): one sick device's failures must
     * be visible — and actionable — without implicating the fleet.
     */
    RemoteStats shardStats(std::size_t shard) const;

    /// @}

    /**
     * A utilization probe for contention policies: each call performs
     * a LAKE-remoted NVML query (so it really costs channel time and
     * really observes the simulated device). When the query fails the
     * probe returns the last reading it saw (initially 100%, i.e.
     * "assume contended") instead of panicking.
     */
    policy::UtilProbe nvmlProbe();

    /// @name Failure semantics (ISSUE 2)
    /// @{

    /**
     * True once repeated remoting failures latched degraded mode:
     * policies wrapped by degradationGuard() pick the CPU from then on.
     */
    bool
    degraded() const
    {
        return health_.degraded.load(std::memory_order_relaxed);
    }

    /**
     * Operator action: re-arms accelerator use after the remoting path
     * has been repaired (e.g. lakeD restarted).
     */
    void resetDegraded();

    /** Remoting-health counters (faults_seen, retries, fallbacks). */
    RemoteStats remoteStats() const;

    /**
     * Reconfigures command pipelining at runtime (any pending batch is
     * flushed first, so no queued command is lost or reordered).
     */
    void setPipeline(remote::PipelineConfig p) { lib_.setPipeline(p); }

    /**
     * Wraps @p inner in a FallbackPolicy bound to this Lake's health:
     * while degraded() the wrapped policy returns Engine::Cpu and the
     * fallbacks counter grows. Drop the result into any registry via
     * registerPolicy — the Fig. 3 plumbing needs no other change.
     */
    std::unique_ptr<policy::ExecPolicy>
    degradationGuard(std::unique_ptr<policy::ExecPolicy> inner);

    /**
     * Records one classifier-level CPU fallback (a call site that
     * caught a remoting error mid-batch and finished on the CPU).
     */
    void noteFallback() { ++health_.fallbacks; }

    /// @}

    /**
     * Mirrors both sides' remoting counters (lakeLib and lakeD) into
     * the obs::Metrics registry. Call right before exporting metrics;
     * a no-op while metrics are disabled.
     */
    void publishObs() const;

  private:
    LakeConfig config_;
    Clock clock_;
    shm::ShmArena arena_;
    gpu::Device device_;
    channel::Channel channel_;
    remote::LakeDaemon daemon_;
    remote::LakeLib lib_;
    registry::RegistryManager registries_;
    ml::KernelCpu kernel_cpu_;
    /**
     * Declared after lib_ so it is destroyed first: the destructor
     * drains in-flight streams through lib_ and frees the pool's
     * arena carve-out.
     */
    std::unique_ptr<remote::StreamOrchestrator> streaming_;

    /** The device fleet and its shards; null unless fleet.enabled. */
    std::unique_ptr<gpu::DeviceFleet> fleet_;
    std::unique_ptr<remote::ShardFleet> shards_;
    std::unique_ptr<remote::FleetRouter> router_;

    /**
     * This Lake's own remoting lane's health. Same per-lane type the
     * fleet shards use: the degraded latch and fallback counter are
     * scoped to one remoting path, never to the system (the atomics
     * inside absorb the ScoreServer-flush-thread races the old
     * Lake-global members handled ad hoc).
     */
    remote::ShardHealth health_;
    /** True while the global Tracer is bound to this Lake's clock. */
    bool bound_tracer_clock_ = false;
};

} // namespace lake::core

#endif // LAKE_CORE_LAKE_H

#include "core/lake.h"

#include <algorithm>
#include <utility>

#include "base/logging.h"

namespace lake::core {

Lake::Lake(LakeConfig config)
    : config_(config), arena_(config.shm_bytes), device_(config.device),
      channel_(config.channel, clock_),
      daemon_(channel_, arena_, device_, clock_),
      lib_(channel_, arena_, [this] { daemon_.processPending(); }),
      registries_(clock_, arena_), kernel_cpu_(clock_, config.cpu)
{
    obs::configure(config_.obs);
    // Bind the tracer to this system's clock while tracing is live
    // (whether the config or the LAKE_OBS_TRACE environment enabled
    // it), so clock-less instrumentation sites get real timestamps.
    bound_tracer_clock_ = obs::Tracer::global().enabled();
    if (bound_tracer_clock_)
        obs::Tracer::global().bindClock(&clock_);
    lib_.setRetryPolicy(config.retry);
    lib_.setPipeline(config.pipeline);
    if (config_.scoring.enabled) {
        Status s = registries_.enableScoring(config_.scoring);
        LAKE_ASSERT(s.isOk(), "scoring service boot failed: %s",
                    s.message().c_str());
    }
    if (config_.streaming.enabled)
        streaming_ = std::make_unique<remote::StreamOrchestrator>(
            lib_, clock_, config_.streaming);
    // Latch degraded mode after degrade_threshold consecutive RPC
    // failures; any success before that resets the streak. The latch
    // is per remoting lane (ShardHealth), not per system.
    lib_.setFailureObserver([this](const Status &s) {
        health_.observe(s, config_.degrade_threshold, "lake");
    });
    if (config_.fleet.enabled) {
        fleet_ = std::make_unique<gpu::DeviceFleet>(config_.fleet.devices,
                                                     config_.device);
        remote::ShardParams params;
        params.channel = config_.channel;
        params.shm_bytes = config_.shm_bytes;
        params.degrade_threshold = config_.degrade_threshold;
        params.retry = config_.retry;
        params.pipeline = config_.pipeline;
        std::size_t shards =
            std::max<std::size_t>(1, config_.fleet.shards);
        shards = std::min(shards, fleet_->size());
        shards_ = std::make_unique<remote::ShardFleet>(*fleet_, shards,
                                                       params);
        router_ = std::make_unique<remote::FleetRouter>(
            *shards_, policy::FleetPlacementPolicy::Config{});
    }
}

Lake::~Lake()
{
    if (!bound_tracer_clock_)
        return;
    if (!config_.obs.trace_path.empty())
        obs::writeChromeTrace(config_.obs.trace_path);
    obs::Tracer::global().unbindClock();
}

void
Lake::publishObs() const
{
    if (!obs::Metrics::global().enabled())
        return;
    lib_.publishMetrics();
    daemon_.publishMetrics();
    if (streaming_)
        streaming_->publishMetrics();
    if (router_)
        router_->publishMetrics();
}

policy::UtilProbe
Lake::nvmlProbe()
{
    // Starts pessimistic: until a query succeeds, report the device as
    // fully contended so contention policies prefer the CPU.
    auto last = std::make_shared<double>(100.0);
    return [this, last](Nanos) {
        remote::RemoteUtilization util;
        gpu::CuResult r = lib_.nvmlGetUtilization(&util);
        if (r == gpu::CuResult::Success)
            *last = static_cast<double>(util.gpu);
        return *last;
    };
}

void
Lake::resetDegraded()
{
    health_.reset();
}

RemoteStats
Lake::remoteStats() const
{
    RemoteStats s;
    s.faults_seen = lib_.faultsSeen();
    s.retries = lib_.retries();
    s.fallbacks = health_.fallbacks.load(std::memory_order_relaxed);
    s.degraded = degraded();
    return s;
}

RemoteStats
Lake::shardStats(std::size_t shard) const
{
    RemoteStats s;
    if (!shards_ || shard >= shards_->size())
        return s;
    // shard() is non-const only because it hands out mutable stacks;
    // reading counters is safe from a const Lake.
    auto &sh = const_cast<remote::ShardFleet *>(shards_.get())->shard(shard);
    s.faults_seen = sh.lib().faultsSeen();
    s.retries = sh.lib().retries();
    s.fallbacks = sh.health().fallbacks.load(std::memory_order_relaxed);
    s.degraded = sh.health().degraded.load(std::memory_order_relaxed);
    return s;
}

std::unique_ptr<policy::ExecPolicy>
Lake::degradationGuard(std::unique_ptr<policy::ExecPolicy> inner)
{
    return std::make_unique<policy::FallbackPolicy>(
        std::move(inner), [this] { return degraded(); },
        [this] { ++health_.fallbacks; });
}

} // namespace lake::core

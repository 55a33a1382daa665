#ifndef LAKE_SERVE_TRAFFIC_H
#define LAKE_SERVE_TRAFFIC_H

/**
 * @file
 * The open-loop multi-tenant traffic generator (DESIGN.md §11).
 *
 * Pipeline per request:
 *
 *   arrival --(token bucket)--> tenant queue --(DRR pump)-->
 *       ScoreServer --(coalesced flush)--> completion
 *
 *  - *Arrival* follows the tenant's virtual-time schedule (seeded
 *    Poisson or a trace file) regardless of completions: offered load
 *    never backs off, which is what makes the generator open-loop.
 *  - *Admission* is a per-tenant token bucket; non-conformant
 *    arrivals are rejected immediately and never consume queue space
 *    or dispatch capacity.
 *  - *Queueing* is bounded per tenant. A full queue sheds its oldest
 *    request (default, freshness-preserving — matching the
 *    ScoreServer's shed_oldest convention) or rejects the new one.
 *  - *Dispatch* is deficit round-robin across tenants with queued
 *    work, so a hot tenant cannot starve the rest of the shared
 *    ScoreServer: each pump round gives every active tenant
 *    `drr_quantum` new credits and dispatches at most its accumulated
 *    deficit. Tenants hash onto a small set of registry shards under
 *    one subsystem, so the ScoreServer coalesces *across* tenants and
 *    the shard policy sees the full cross-tenant batch depth.
 *  - *Completion* latency is arrival-to-scored, so it includes both
 *    the tenant-queue wait and the ScoreServer's coalescing delay.
 *
 * Threading: offer() and pump() may race from multiple threads (the
 * sanitizer suite does exactly that); run() is the single-threaded
 * virtual-time event loop the benches drive. No internal lock is held
 * across a ScoreServer call — submit() can flush inline and re-enter
 * this generator through its completion callbacks.
 */

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "base/time.h"
#include "registry/manager.h"
#include "serve/serve.h"
#include "serve/tenant.h"

namespace lake::serve {

/**
 * Builds the feature vector one simulated request scores. The default
 * factory emits a single "tenant" feature; benches substitute
 * model-shaped features (e.g. LinnOS history) when the classifier
 * cares.
 */
using RequestFactory =
    std::function<registry::FeatureVector(std::size_t tenant, Nanos now)>;

/** Aggregate counters and SLO percentiles over one run. */
struct ServeSummary
{
    std::uint64_t arrivals = 0;
    std::uint64_t admits = 0;
    std::uint64_t bucket_rejects = 0;
    std::uint64_t queue_sheds = 0;
    std::uint64_t backpressure = 0; //!< ScoreServer pushback, re-queued
    std::uint64_t dispatched = 0;
    std::uint64_t completions = 0;
    std::uint64_t failures = 0; //!< shed downstream / registry torn down
    /** Requests still queued when the summary was taken. */
    std::size_t queued_residual = 0;

    double p50_us = 0.0;
    double p99_us = 0.0;
    double p999_us = 0.0;
    /** Completions per virtual second over @p horizon. */
    double goodput_rps = 0.0;
    /** (bucket_rejects + queue_sheds + failures) / arrivals. */
    double reject_rate = 0.0;
    /** Per-tenant completion extremes (fairness: max/min near 1). */
    double min_tenant_completions = 0.0;
    double max_tenant_completions = 0.0;
};

/** One timeseries sample (queue depth / utilization over time). */
struct ServeSample
{
    Nanos at = 0;
    /** Requests queued across tenants (admitted, undispatched). */
    std::size_t queue_depth = 0;
    /** Vectors pending inside the ScoreServer. */
    std::size_t server_pending = 0;
    std::uint64_t admits = 0;      //!< cumulative
    std::uint64_t completions = 0; //!< cumulative
    std::uint64_t sheds = 0;       //!< cumulative (queue + downstream)
    /** Utilization probe reading (0-100); 0 when no probe is set. */
    double utilization = 0.0;
};

/**
 * The generator. Construction wires nothing into the Lake runtime —
 * the owner creates the shard registries, installs classifiers and
 * policies, and enables the scoring service first (exactly what
 * bench/serve_slo does); the generator only drives traffic through
 * them.
 */
class TrafficGenerator
{
  public:
    /**
     * @param mgr    registry owner; scoring service must be enabled
     * @param clock  the shared virtual clock
     * @param cfg    serving knobs (cfg.enabled is unread —
     *               constructing the generator *is* enabling it)
     * @param sys    subsystem the shard registries live under
     * @param shards shard registry names (all must exist in @p mgr);
     *               tenant t dispatches via shards[t % size]
     */
    TrafficGenerator(registry::RegistryManager &mgr, Clock &clock,
                     ServeConfig cfg, std::string sys,
                     std::vector<std::string> shards);

    /**
     * Flushes the ScoreServer so every submitted request's completion
     * callback — which captures `this` — runs while the generator is
     * still alive. Without it, requests left pending by a manual
     * offer()/pump() sequence would be dispatched by the §7
     * ScoreServer's own destructor during RegistryManager teardown,
     * after this object is gone.
     */
    ~TrafficGenerator();

    TrafficGenerator(const TrafficGenerator &) = delete;
    TrafficGenerator &operator=(const TrafficGenerator &) = delete;

    /** Substitutes the request-building callback (default: trivial). */
    void setRequestFactory(RequestFactory f);

    /**
     * Enables periodic timeseries sampling inside run(). @p util is
     * consulted at each sample point (pass nullptr for none).
     */
    void enableSampling(Nanos interval, std::function<double()> util);

    /**
     * One arrival for @p tenant at virtual time @p now: counts it,
     * runs admission, and queues or sheds. Thread-safe.
     *
     * @return Ok when queued (possibly shedding an older request),
     *         ResourceExhausted when the bucket or queue refused it
     */
    Status offer(std::size_t tenant, Nanos now);

    /**
     * One DRR round: gives every tenant with queued work a quantum of
     * credits, dispatches up to each tenant's deficit into the
     * ScoreServer, then poll()s expired deadlines. Thread-safe.
     *
     * @return requests handed to the ScoreServer this round
     */
    std::size_t pump(Nanos now);

    /**
     * The open-loop event loop: replays the arrival schedule (Poisson
     * from cfg.seed, or cfg.trace_path) against pump ticks for
     * @p duration virtual ns, then drains what remains queued and
     * flushes the ScoreServer so every dispatched request completes.
     */
    void run(Nanos duration);

    /** Aggregate counters + percentiles; goodput over @p horizon. */
    ServeSummary summary(Nanos horizon) const;

    /** Per-tenant state (exact under quiescence). */
    const std::vector<Tenant> &tenantStates() const { return tenants_; }

    /** Timeseries collected by run() (empty unless sampling enabled). */
    const std::vector<ServeSample> &timeseries() const { return samples_; }

    /** Knobs in force. */
    const ServeConfig &config() const { return cfg_; }

  private:
    /** One dispatch picked under mu_, submitted outside it. */
    struct Dispatch
    {
        std::size_t tenant;
        Nanos arrival;
    };

    /** Completion-callback body; takes mu_. */
    void onScored(std::size_t tenant, Nanos arrival,
                  const registry::ScoreResult &r);

    /** Records one sample (single-threaded run() path). */
    void sample(Nanos now);

    void updateDepthGauge() const;

    registry::RegistryManager &mgr_;
    Clock &clock_;
    ServeConfig cfg_;
    std::string sys_;
    std::vector<std::string> shards_;
    RequestFactory factory_;

    mutable std::mutex mu_; //!< guards tenants_, rr_next_, trackers
    std::vector<Tenant> tenants_;
    /** DRR cursor: the tenant the next pump round starts from. */
    std::size_t rr_next_ = 0;
    /** Admitted-but-undispatched requests across tenants. */
    std::size_t queued_ = 0;
    std::uint64_t backpressure_ = 0;
    std::uint64_t dispatched_ = 0;
    /** All-tenant latency population (percentiles over everything). */
    PercentileTracker latency_us_;

    Nanos sample_interval_ = 0;
    std::function<double()> util_probe_;
    std::vector<ServeSample> samples_;
};

} // namespace lake::serve

#endif // LAKE_SERVE_TRAFFIC_H

#ifndef LAKE_SERVE_SERVE_H
#define LAKE_SERVE_SERVE_H

/**
 * @file
 * Boot-time configuration of the multi-tenant serving front end
 * (DESIGN.md §11).
 *
 * The serving layer is an *open-loop* traffic generator: simulated
 * tenants emit score requests on a virtual-time arrival schedule that
 * does not wait for completions, exactly like the offered-load
 * harnesses the paper's Fig. 7/8 latency numbers assume. In front of
 * the shared ScoreServer it adds the multi-tenancy mechanisms the
 * paper argues a kernel-resident ML substrate needs: per-tenant
 * token-bucket admission, bounded per-tenant queues with
 * shed-on-pressure, and deficit-round-robin fair sharing of the
 * coalesced GPU/CPU dispatch path.
 *
 * Nothing here runs unless an application constructs a
 * TrafficGenerator over its own registries, on a Lake booted with
 * the scoring service (LakeConfig.scoring.enabled).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"
#include "base/time.h"

namespace lake::serve {

/** Knobs of one TrafficGenerator, set by the application in code. */
struct ServeConfig
{
    /**
     * Unread: nothing in the library looks at it. Kept only because
     * the benchmark harness (lakebench/src/score.cc) still sets it;
     * delete it with the next change to the benchmark.
     */
    bool enabled = false;

    /** Simulated tenants (the paper's "hundreds of devices" scale). */
    std::size_t tenants = 64;

    /**
     * Per-tenant mean offered load, requests per virtual second.
     * Inter-arrival times are exponential (Poisson process) unless a
     * trace file overrides the schedule entirely.
     */
    double rate_rps = 1000.0;

    /** Seed for the arrival process (replays bit-identically). */
    std::uint64_t seed = 0x1a4e;

    /**
     * Token-bucket refill rate, tokens per virtual second. One request
     * costs one token; a tenant whose bucket is empty has its request
     * rejected at admission (counted, never queued).
     */
    double bucket_rate = 2000.0;

    /** Token-bucket capacity (burst tolerance), in tokens. */
    double bucket_burst = 16.0;

    /** Requests one tenant's queue may hold past admission. */
    std::size_t queue_capacity = 64;

    /**
     * Full-queue behaviour: true sheds the *oldest* queued request
     * (freshness-preserving, the ScoreServer convention); false
     * rejects the *new* arrival.
     */
    bool shed_oldest = true;

    /**
     * Deficit-round-robin quantum: requests one tenant may dispatch
     * per pump round before yielding to the next active tenant.
     */
    std::size_t drr_quantum = 4;

    /** Virtual-time interval between generator pump/poll ticks. */
    Nanos pump_interval = 50_us;

    /**
     * Dispatch window: classifiers charge the shared clock, so the
     * clock running ahead of the arrival schedule *is* the server's
     * backlog. While that runahead exceeds this bound the pump stops
     * dispatching — pressure propagates back into the bounded tenant
     * queues (which shed) instead of growing an unbounded virtual
     * backlog. 0 disables the gate.
     */
    Nanos max_runahead = 1_ms;

    /**
     * Registry shards the tenants hash onto. The shards live under one
     * subsystem, so the ScoreServer coalesces *across* tenants and the
     * execution policy sees the full cross-tenant batch depth —
     * multi-tenancy feeds the Fig. 3 profitability signal for free.
     */
    std::size_t shards = 4;

    /**
     * Optional trace file replacing the Poisson schedule: one
     * "<time_us> <tenant>" pair per line ('#' starts a comment).
     * Times are absolute virtual microseconds and must be
     * non-decreasing; tenant ids beyond `tenants` are rejected.
     */
    std::string trace_path;
};

/** One trace-driven arrival: absolute virtual time plus tenant. */
struct TraceEntry
{
    Nanos at = 0;
    std::size_t tenant = 0;
};

/**
 * Parses a serving trace file (format above) into @p out.
 *
 * Rejects unreadable files, malformed lines, times that move
 * backwards, and tenant ids >= @p tenants — a trace error aborts the
 * run at load time rather than mid-experiment.
 */
Status loadTrace(const std::string &path, std::size_t tenants,
                 std::vector<TraceEntry> &out);

} // namespace lake::serve

#endif // LAKE_SERVE_SERVE_H

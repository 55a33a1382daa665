#ifndef LAKEBENCH_SCORE_H
#define LAKEBENCH_SCORE_H

/**
 * @file
 * The open-loop scoring workloads (score_open, score_fleet): their
 * fixed load, one round's result, and the slo_rate_vps search.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/time.h"
#include "harness.h"
#include "registry/registry.h"

namespace lakebench {

/// @name Fixed load, per device (listed in README.md)
/// @{
constexpr std::size_t kTenants = 64;
/** LinnOS registries per device, all in one subsystem. */
constexpr std::size_t kRegistries = 4;
constexpr std::size_t kMaxBatch = 32;
/** ScoreServer queue per registry, vectors. */
constexpr std::size_t kServerQueue = 256;
/** Generator queue per tenant, requests. */
constexpr std::size_t kTenantQueue = 64;
constexpr std::size_t kDrrQuantum = 4;
constexpr lake::Nanos kPumpInterval = 50'000;
/**
 * Token bucket per tenant: far above a tenant's share of the search's
 * top rate (1M / 64 = 15.6k), so admission never sets the limit.
 */
constexpr double kBucketRate = 40000.0;
constexpr double kBucketBurst = 64.0;
/** Nominal offered load, vectors per virtual second per device. */
constexpr double kNominalVps = 200000.0;
/** Expected arrivals per device in one nominal round. */
constexpr std::size_t kRoundArrivals = 100000;
/** The latency limit on p99. */
constexpr lake::Nanos kLatencyLimit = 1'000'000;
constexpr double kMaxFailFrac = 0.01;
/**
 * A backlog grows when a device's queued vectors at the end of the
 * arrival phase exceed their mid-run count by more than four batches,
 * or its clock ends more than the latency limit behind the schedule.
 * The slack keeps a burst in the last moments of a probe below
 * capacity from reading as overload.
 */
constexpr std::size_t kBacklogSlack = 4 * kMaxBatch;
/** slo_rate_vps search grid, per device. */
constexpr double kSearchLoVps = 50000.0;
constexpr double kSearchHiVps = 1000000.0;
constexpr double kSearchStepVps = 5000.0;
/** Expected arrivals per device in one search probe. */
constexpr std::size_t kProbeArrivals = 30000;
/// @}

/** Which scoring workload: its name and device count. */
struct ScoreShape
{
    std::string name;
    std::size_t devices = 1;
};

/** The outcome of one round (one booted system, one offered rate). */
struct RoundResult
{
    std::vector<std::string> errors;
    double setup_s = 0.0;
    double host_s = 0.0;
    /** setup_s and host_s at the reference host's speed (harness.h). */
    double scaled_setup_s = 0.0;
    double scaled_host_s = 0.0;
    /** Virtual time summed over lanes, and the longest lane. */
    lake::Nanos virtual_ns = 0;
    lake::Nanos makespan_ns = 0;

    Percentile p50, p99, p999;
    Percentile lag_p99, queue_p99;

    std::uint64_t arrivals = 0, admits = 0, bucket_rejects = 0;
    std::uint64_t queue_sheds = 0, completions = 0, failures = 0;
    std::uint64_t vectors = 0;
    std::uint64_t batches = 0, gpu_batches = 0, mismatches = 0;
    bool backlog_grew = false;

    /** Per-layer metrics (traced rounds only). */
    std::vector<Metric> layers;

    /** Requests refused, shed or failed. */
    std::uint64_t
    refused() const
    {
        return bucket_rejects + queue_sheds + failures;
    }

    /** True when every virtual-time output equals @p o's. */
    bool sameVirtual(const RoundResult &o) const;
};

/** A finished slo_rate_vps search. */
struct SloSearch
{
    /** Highest passing grid rate; 0 when even the lowest failed. */
    double rate = 0.0;
    /** True when the top of the grid passed (the rate is a floor). */
    bool capped = false;
    /** Every rate probed and whether it passed. */
    std::map<double, bool> probed;
};

/**
 * Binary search over the grid lo, lo+step, ..., hi for the highest rate
 * that @p passes, assuming passing is monotone in the rate. The result
 * has been probed and passed, and the next step above it (when below
 * hi) has been probed and failed.
 */
SloSearch searchSlo(double lo, double hi, double step,
                    const std::function<bool(double)> &passes);

/** The SLO: p99 within the limit, few refusals, no growing backlog. */
bool meetsSlo(RoundResult &r);

/** One LinnOS-shaped request due at @p due. */
lake::registry::FeatureVector makeLinnosRequest(lake::Rng &rng,
                                                lake::Nanos due);

/**
 * Boots a system of @p shape, offers @p vps per device for about
 * @p arrivals requests per device, and drains. Traced rounds turn obs
 * on and record spans into @p rec. With @p scale the host times are
 * also scaled to the reference host's speed (HostTimer).
 */
RoundResult scoreRound(const ScoreShape &shape, double vps,
                       std::size_t arrivals, std::uint64_t seed,
                       class SpanRecorder &rec, bool traced,
                       bool scale = false);

} // namespace lakebench

#endif // LAKEBENCH_SCORE_H

#ifndef LAKEBENCH_HARNESS_H
#define LAKEBENCH_HARNESS_H

/**
 * @file
 * What every lakebench workload shares: the command line, the result
 * it reports, the latency-percentile rule, host timing and provenance.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace lakebench {

/** One run's command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Wall-clock seconds the timed phase measures for. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Chrome trace-event file a traced run writes at exit. */
    std::string trace_out;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct Outcome
{
    /** False once any output check failed. */
    bool correct = true;
    /** Operations attempted and failed in the timed phase. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** The first few check failures, for stderr. */
    std::vector<std::string> errors;

    /** Marks the run incorrect and keeps @p why (first 20 only). */
    void fail(const std::string &why);
    /** Adds (or replaces) metric @p name. */
    void put(const std::string &name, double value, const std::string &unit);
    /** The value of metric @p name; NaN when absent. */
    double get(const std::string &name) const;
};

/** A metric the benchmark declares in BENCHMARK.json. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics every untraced run prints. */
extern const std::vector<MetricSpec> kEndToEnd;
/**
 * The per-layer metrics every traced run prints; a workload that
 * bypasses a layer reports 0 for it.
 */
extern const std::vector<MetricSpec> kPerLayer;

/** A percentile read from a LatencySample. */
struct Percentile
{
    /** False when fewer than kMinBeyond samples lie beyond it. */
    bool ok = false;
    double value = 0.0;
    /** Samples the percentile was taken over (refusals included). */
    std::size_t samples = 0;
    /** Samples ranked beyond the percentile. */
    std::size_t beyond = 0;
};

/**
 * Latencies of one population of requests. A refused request (shed,
 * rejected or failed) is kept as an infinitely late sample, so it
 * counts against any latency limit.
 */
class LatencySample
{
  public:
    /** Fewest samples a reported percentile must have beyond it. */
    static constexpr std::size_t kMinBeyond = 10;

    void add(double us);
    void refuse() { ++refused_; }

    /** Completed plus refused. */
    std::size_t count() const { return v_.size() + refused_; }

    /**
     * Nearest-rank @p p-th percentile (0 < p < 100). Refuses (ok ==
     * false) when fewer than kMinBeyond samples rank beyond it; the
     * value is +inf when the rank falls among the refusals.
     */
    Percentile percentile(double p) const;

  private:
    /** Sorted lazily by percentile(). */
    mutable std::vector<double> v_;
    mutable bool sorted_ = true;
    std::size_t refused_ = 0;
};

/** "p99_us 278.125 (n=100000, beyond=1000)" or a refusal note. */
std::string describe(const char *name, const Percentile &p);

/** Host monotonic time, ns. */
inline std::int64_t
hostNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * CPU time this process has used so far (user + system, all threads),
 * ns. Host-time metrics are measured on this clock: on a shared machine
 * a co-tenant that steals the CPU inflates wall time but not this.
 */
std::int64_t cpuNs();

/** The benchmark's fixed reference kernels (reference.cc). */
enum class Reference
{
    /** Compute kernels over data within L2. */
    Compute,
    /** The compute kernels plus random reads from 16 MiB. */
    Memory,
};

/** One timed slice of host work (HostTimer::split). */
struct HostSlice
{
    /** CPU time of the slice, ns. */
    std::int64_t ns = 0;
    /** The mean of the host-speed factors measured at its two ends. */
    double factor = 1.0;

    double scaledNs() const { return static_cast<double>(ns) * factor; }
};

/**
 * Times host work in slices and scales each slice to the reference
 * host's speed. Co-tenants on a shared machine slow the program by a
 * factor that drifts over minutes. Between slices the timer measures
 * the CPU time of a pass of reference kernels; the host-speed factor is
 * the pass's time on an idle core of the reference host divided by that,
 * and a slice is scaled by the mean factor at its two ends. A workload
 * splits its work every few hundred ms, so the factor follows the
 * machine's speed through a run; the passes themselves are not timed.
 * Every host-time end-to-end metric is scaled so.
 */
class HostTimer
{
  public:
    /**
     * Measures the first factor and starts the first slice. With
     * @p scale false every factor is 1 and nothing is measured.
     */
    HostTimer(bool scale, Reference ref);

    /** Leaves @p ns of the current slice out of its time (output checks). */
    void exclude(std::int64_t ns) { excluded_ += ns; }

    /** Ends the current slice, measures the next factor and starts the next slice. */
    HostSlice split();

  private:
    double measure() const;

    bool scale_;
    Reference ref_;
    double factor_ = 1.0;
    std::int64_t start_ = 0;
    std::int64_t excluded_ = 0;
};

/** Median (upper median for even sizes); 0 for an empty vector. */
double median(std::vector<double> v);

/** Peak resident set of this process, MiB. */
double peakRssMb();

/** Provenance of this binary and run, as "# key=value ..." lines. */
void printProvenance(std::FILE *f, const Options &opt);

/**
 * The timed phase's loop: runs @p round until @p seconds of wall-clock
 * time have passed and at least @p min_rounds ran. @p round gets its
 * index.
 */
void repeatFor(double seconds, std::size_t min_rounds,
               const std::function<void(std::size_t)> &round);

/// @name Workloads (one entry point each)
/// @{
Outcome runScoreOpen(const Options &opt);
Outcome runScoreFleet(const Options &opt);
Outcome runCaptureClosed(const Options &opt);
Outcome runCryptBulk(const Options &opt);
/// @}

} // namespace lakebench

#endif // LAKEBENCH_HARNESS_H

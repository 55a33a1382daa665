#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "base/thread_pool.h"

#ifndef LAKEBENCH_COMPILER
#define LAKEBENCH_COMPILER "unknown"
#endif
#ifndef LAKEBENCH_BUILD_TYPE
#define LAKEBENCH_BUILD_TYPE "unknown"
#endif
#ifndef LAKEBENCH_FLAGS
#define LAKEBENCH_FLAGS "unknown"
#endif
#ifndef LAKEBENCH_NATIVE_ARCH
#define LAKEBENCH_NATIVE_ARCH "unknown"
#endif
#ifndef LAKEBENCH_GIT_REV
#define LAKEBENCH_GIT_REV "unknown"
#endif

namespace lakebench {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"rss_mb", "MiB"},
    {"p50_us", "us"},
    {"p99_us", "us"},
    {"p999_us", "us"},
    {"slo_rate_vps", "vectors/s"},
    {"host_vps", "vectors/s"},
    {"crypt_mbps", "MB/s"},
    {"host_mbps", "MB/s"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"fail_frac", "ratio"},
    {"serve.admit_frac", "ratio"},
    {"serve.shed_frac", "ratio"},
    {"serve.gen_lag_us", "us"},
    {"registry.capture_ns", "ns"},
    {"registry.commit_ns", "ns"},
    {"registry.gather_ns", "ns"},
    {"registry.batch", "vectors"},
    {"registry.queue_us", "us"},
    {"registry.rejects", "count"},
    {"policy.decide_ns", "ns"},
    {"policy.gpu_frac", "ratio"},
    {"policy.probes", "count"},
    {"policy.probe_us", "us"},
    {"ml.gpu_batch_us", "us"},
    {"ml.cpu_batch_us", "us"},
    {"ml.host_ns_per_vec", "ns"},
    {"remote.cmds_per_op", "count"},
    {"remote.doorbells_per_op", "count"},
    {"remote.rpc_us", "us"},
    {"remote.dispatch_us", "us"},
    {"remote.execute_us", "us"},
    {"remote.retries", "count"},
    {"channel.msgs_per_op", "count"},
    {"channel.bytes_per_op", "bytes"},
    {"channel.crossing_us", "us"},
    {"shm.allocs_per_op", "count"},
    {"shm.highwater_kb", "KiB"},
    {"shm.alloc_failures", "count"},
    {"gpu.util_pct", "%"},
    {"gpu.htod_us", "us"},
    {"gpu.kernel_us", "us"},
    {"gpu.dtoh_us", "us"},
    {"gpu.bytes_per_op", "bytes"},
    {"gpu.launches_per_op", "count"},
    {"crypto.extent_us", "us"},
    {"crypto.host_mbps", "MB/s"},
    {"fs.disk_busy_frac", "ratio"},
    {"fs.crypto_busy_frac", "ratio"},
    {"fleet.util_min_pct", "%"},
    {"fleet.util_max_pct", "%"},
    {"fleet.migrations", "count"},
    {"fleet.shard_skew", "ratio"},
    {"batch.nvml_probe_us", "us"},
    {"batch.marshal_crossing_us", "us"},
    {"batch.daemon_dispatch_us", "us"},
    {"batch.htod_us", "us"},
    {"batch.launch_us", "us"},
    {"batch.kernel_us", "us"},
    {"batch.dtoh_us", "us"},
    {"batch.response_us", "us"},
    {"batch.host_us", "us"},
    {"batch.total_us", "us"},
    {"budget.serve_frac", "ratio"},
    {"budget.registry_frac", "ratio"},
    {"budget.policy_frac", "ratio"},
    {"budget.ml_frac", "ratio"},
    {"budget.crypto_frac", "ratio"},
    {"budget.fs_frac", "ratio"},
    {"budget.channel_frac", "ratio"},
    {"budget.remote_frac", "ratio"},
    {"budget.gpu_frac", "ratio"},
    {"budget.other_frac", "ratio"},
    {"obs.host_overhead_frac", "ratio"},
    {"obs.virtual_drift", "ratio"},
};

void
Outcome::fail(const std::string &why)
{
    correct = false;
    if (errors.size() < 20)
        errors.push_back(why);
}

void
Outcome::put(const std::string &name, double value, const std::string &unit)
{
    for (Metric &m : metrics)
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    metrics.push_back(Metric{name, value, unit});
}

double
Outcome::get(const std::string &name) const
{
    for (const Metric &m : metrics)
        if (m.name == name)
            return m.value;
    return std::numeric_limits<double>::quiet_NaN();
}

void
LatencySample::add(double us)
{
    v_.push_back(us);
    sorted_ = false;
}

Percentile
LatencySample::percentile(double p) const
{
    Percentile r;
    r.samples = count();
    if (r.samples == 0 || p <= 0.0 || p >= 100.0)
        return r;
    if (!sorted_) {
        std::sort(v_.begin(), v_.end());
        sorted_ = true;
    }
    // Nearest rank: the smallest sample with at least p% of the
    // population at or below it.
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(r.samples)));
    rank = std::clamp<std::size_t>(rank, 1, r.samples);
    r.beyond = r.samples - rank;
    r.value = rank <= v_.size() ? v_[rank - 1]
                                : std::numeric_limits<double>::infinity();
    r.ok = r.beyond >= kMinBeyond;
    return r;
}

std::string
describe(const char *name, const Percentile &p)
{
    char buf[160];
    if (!p.ok)
        std::snprintf(buf, sizeof buf,
                      "%s refused (n=%zu, beyond=%zu < %zu)", name,
                      p.samples, p.beyond, LatencySample::kMinBeyond);
    else
        std::snprintf(buf, sizeof buf, "%s %.3f (n=%zu, beyond=%zu)", name,
                      p.value, p.samples, p.beyond);
    return buf;
}

std::int64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
    std::nth_element(v.begin(), mid, v.end());
    return *mid;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

void
printProvenance(std::FILE *f, const Options &opt)
{
    const char *threads = std::getenv("LAKE_CPU_THREADS");
    std::fprintf(f, "# workload=%s seed=%llu seconds=%g trace=%d\n",
                 opt.workload.c_str(),
                 static_cast<unsigned long long>(opt.seed), opt.seconds,
                 opt.trace ? 1 : 0);
    std::fprintf(f, "# compiler=%s build_type=%s\n", LAKEBENCH_COMPILER,
                 LAKEBENCH_BUILD_TYPE);
    std::fprintf(f, "# flags=%s\n", LAKEBENCH_FLAGS);
    std::fprintf(f, "# LAKE_NATIVE_ARCH=%s git_rev=%s\n",
                 LAKEBENCH_NATIVE_ARCH, LAKEBENCH_GIT_REV);
    std::fprintf(f, "# thread_pool=%zu LAKE_CPU_THREADS=%s\n",
                 lake::base::ThreadPool::global().threadCount(),
                 threads && *threads ? threads : "unset");
}

void
repeatFor(double seconds, std::size_t min_rounds,
          const std::function<void(std::size_t)> &round)
{
    const std::int64_t end =
        hostNs() + static_cast<std::int64_t>(seconds * 1e9);
    for (std::size_t r = 0; r < min_rounds || hostNs() < end; ++r)
        round(r);
}

} // namespace lakebench

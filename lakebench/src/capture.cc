// capture_closed: the write side of the feature registry, the cost every
// I/O pays on the kernel hot path. One thread runs a closed loop over
// 16 registries: each op opens a vector, captures 32 features (half
// point-in-time sets, half incremental counters) and commits it. Every
// 32 commits to a registry the loop gathers its vectors, scores them
// with one Table 1 score_features call on a CPU classifier and
// truncates the window. Registry windows together (16 x 1024 vectors x
// 32 features x 8 bytes = 4 MiB of feature payload) exceed a core's L2.

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "base/rng.h"
#include "core/lake.h"
#include "harness.h"
#include "ml/backends.h"
#include "ml/mlp.h"
#include "registry/manager.h"
#include "spans.h"

namespace lakebench {

using lake::Nanos;

namespace {

constexpr std::size_t kCaptureRegistries = 16;
constexpr std::size_t kFeatures = 32;
constexpr std::size_t kWindow = 1024;
/** Commits per registry between score calls. */
constexpr std::size_t kScoreEvery = 32;
/** Ops (captured vectors) per round. */
constexpr std::size_t kOpsPerRound = 32768;
/** Ops between two measurements of the host-speed factor. */
constexpr std::size_t kOpsPerBlock = 16384;
constexpr const char *kSys = "capture_closed";

using Values = std::array<std::uint64_t, kFeatures>;

/** Even columns are set, odd columns are incremented. */
bool
isIncr(std::size_t col)
{
    return col % 2 == 1;
}

std::string
featureName(std::size_t col)
{
    return (isIncr(col) ? "cnt" : "val") + std::to_string(col);
}

/** Classifier input: the low 16 bits of each feature, scaled to [0, 1). */
lake::ml::Matrix
featurize(const std::vector<Values> &rows)
{
    lake::ml::Matrix x(rows.size(), kFeatures);
    for (std::size_t r = 0; r < rows.size(); ++r)
        for (std::size_t c = 0; c < kFeatures; ++c)
            x.row(r)[c] = static_cast<float>(rows[r][c] & 0xffff) / 65536.0f;
    return x;
}

/** One round's outputs. */
struct CaptureRound
{
    std::vector<std::string> errors;
    double setup_s = 0.0;
    double host_s = 0.0;
    /** setup_s and host_s at the reference host's speed (harness.h). */
    double scaled_setup_s = 0.0;
    double scaled_host_s = 0.0;
    Nanos virtual_ns = 0;
    std::uint64_t ops = 0;
    std::uint64_t scored = 0;
    std::uint64_t failed = 0;
    /** Host time of every op, scaled. */
    LatencySample op_us;
    std::vector<Metric> layers;
};

CaptureRound
captureRound(std::uint64_t seed, SpanRecorder &rec, bool traced, bool scale)
{
    CaptureRound r;
    // The round's inputs, drawn before anything is timed: which registry
    // each op captures into, and its feature values.
    lake::Rng rng(seed * 0x9e3779b97f4a7c15ull + 3);
    std::vector<std::size_t> target(kOpsPerRound);
    std::vector<Values> input(kOpsPerRound);
    for (std::size_t op = 0; op < kOpsPerRound; ++op) {
        target[op] = rng.uniformInt(0, kCaptureRegistries - 1);
        for (std::size_t c = 0; c < kFeatures; ++c)
            input[op][c] =
                isIncr(c) ? rng.uniformInt(1, 64) : rng.uniformInt(0, ~0ull);
    }

    // The registry windows reach beyond L2, so the memory reference
    // scales them. Set-up and every block of kOpsPerBlock ops are
    // slices of their own.
    HostTimer timer(scale, Reference::Memory);
    lake::core::LakeConfig cfg;
    cfg.obs.metrics = traced;
    cfg.obs.trace = traced;
    lake::core::Lake lake(cfg);
    lake::registry::RegistryManager &mgr = lake.registries();
    lake::Rng model_rng(42);
    lake::ml::Mlp model(lake::ml::MlpConfig{kFeatures, {64}, 2}, model_rng);
    lake::ml::CpuMlp cpu_mlp(model, lake.kernelCpu());
    std::int64_t classify_host_ns = 0;
    std::uint64_t classified = 0;

    lake::registry::Schema schema;
    for (std::size_t c = 0; c < kFeatures; ++c)
        schema.add(featureName(c));
    std::array<std::uint64_t, kFeatures> keys{};
    for (std::size_t c = 0; c < kFeatures; ++c)
        keys[c] = lake::registry::featureKey(featureName(c));
    std::vector<std::string> names;
    std::vector<lake::registry::CaptureHandle> handles;
    std::vector<std::array<std::uint32_t, kFeatures>> cols;
    for (std::size_t i = 0; i < kCaptureRegistries; ++i) {
        names.push_back("reg" + std::to_string(i));
        if (!mgr.createRegistry(names.back(), kSys, schema, kWindow).isOk()) {
            r.errors.push_back("createRegistry failed");
            return r;
        }
        lake::registry::Registry *reg = mgr.find(names.back(), kSys);
        reg->registerClassifier(
            lake::registry::Arch::Cpu,
            [&](const std::vector<lake::registry::FeatureVector> &fvs) {
                SpanScope span(rec, "ml", "cpu_classify", lake.clock(),
                               classified);
                const std::int64_t h0 = hostNs();
                std::vector<Values> rows(fvs.size());
                for (std::size_t v = 0; v < fvs.size(); ++v)
                    for (std::size_t c = 0; c < kFeatures; ++c)
                        rows[v][c] = fvs[v].get(keys[c]);
                std::vector<int> labels = cpu_mlp.classify(featurize(rows));
                classify_host_ns += hostNs() - h0;
                classified += fvs.size();
                return std::vector<float>(labels.begin(), labels.end());
            });
        handles.push_back(mgr.captureHandle(names.back(), kSys));
        std::array<std::uint32_t, kFeatures> c{};
        for (std::size_t f = 0; f < kFeatures; ++f)
            c[f] = handles.back().column(featureName(f));
        cols.push_back(c);
    }
    const HostSlice setup = timer.split();
    r.setup_s = static_cast<double>(setup.ns) / 1e9;
    r.scaled_setup_s = setup.scaledNs() / 1e9;

    lake::obs::Metrics::global().reset();
    rec.clear();
    rec.arm(traced);
    // The benchmark's shadow of every registry's open values, and of the
    // vectors committed since the last score call.
    std::vector<Values> open(kCaptureRegistries, Values{});
    std::vector<std::vector<Values>> committed(kCaptureRegistries);
    std::int64_t capture_ns = 0, commit_ns = 0, gather_ns = 0;
    std::uint64_t gathered = 0, score_calls = 0;
    const Nanos v0 = lake.clock().now();
    std::int64_t host_ns = 0;
    double scaled_ns = 0.0;
    std::vector<double> block_us;
    auto endBlock = [&] {
        const HostSlice slice = timer.split();
        host_ns += slice.ns;
        scaled_ns += slice.scaledNs();
        for (double us : block_us)
            r.op_us.add(us * slice.factor);
        block_us.clear();
    };

    auto score = [&](std::size_t i) {
        ++score_calls;
        const Nanos now = lake.clock().now();
        std::vector<lake::registry::FeatureVector> fvs;
        std::vector<float> scores;
        {
            SpanScope span(rec, "registry", "get_features", lake.clock(), i);
            const std::int64_t g0 = hostNs();
            fvs = lake::registry::get_features(mgr, names[i], kSys, std::nullopt);
            gather_ns += hostNs() - g0;
            gathered += fvs.size();
        }
        {
            SpanScope span(rec, "registry", "score_features", lake.clock(), i);
            scores = lake::registry::score_features(mgr, names[i], kSys, fvs, now);
        }
        {
            SpanScope span(rec, "registry", "truncate_features", lake.clock(), i);
            lake::registry::truncate_features(mgr, names[i], kSys, std::nullopt);
        }
        return std::make_pair(std::move(fvs), std::move(scores));
    };
    auto check = [&](std::size_t i,
                     const std::vector<lake::registry::FeatureVector> &fvs,
                     const std::vector<float> &scores) {
        const std::int64_t k0 = cpuNs();
        const std::vector<Values> &want = committed[i];
        bool ok = fvs.size() == want.size() && scores.size() == want.size();
        for (std::size_t v = 0; ok && v < want.size(); ++v)
            for (std::size_t c = 0; ok && c < kFeatures; ++c)
                ok = fvs[v].get(keys[c]) == want[v][c];
        if (ok && !want.empty()) {
            std::vector<int> ref = model.classify(featurize(want));
            ok = std::equal(ref.begin(), ref.end(), scores.begin(),
                            [](int a, float b) { return static_cast<float>(a) == b; });
        }
        if (!ok) {
            r.failed += want.size();
            if (r.errors.size() < 5)
                r.errors.push_back("registry " + names[i] +
                                   ": scores or gathered vectors differ from "
                                   "what was captured");
        }
        r.scored += scores.size();
        committed[i].clear();
        timer.exclude(cpuNs() - k0);
    };

    for (std::size_t op = 0; op < kOpsPerRound; ++op) {
        const std::size_t i = target[op];
        const Values &delta = input[op];
        lake::registry::CaptureHandle &h = handles[i];
        const Nanos ts = lake.clock().now();

        const std::int64_t t0 = hostNs();
        {
            SpanScope span(rec, "registry", "capture", lake.clock(), op);
            h.beginFvCapture(ts);
            for (std::size_t c = 0; c < kFeatures; ++c) {
                if (isIncr(c))
                    h.captureFeatureIncrCol(cols[i][c],
                                            static_cast<std::int64_t>(delta[c]));
                else
                    h.captureFeatureCol(cols[i][c], delta[c]);
            }
        }
        const std::int64_t t1 = hostNs();
        {
            SpanScope span(rec, "registry", "commit", lake.clock(), op);
            h.commitFvCapture(ts);
        }
        const std::int64_t t2 = hostNs();
        capture_ns += t1 - t0;
        commit_ns += t2 - t1;

        for (std::size_t c = 0; c < kFeatures; ++c)
            open[i][c] = isIncr(c) ? open[i][c] + delta[c] : delta[c];
        committed[i].push_back(open[i]);
        std::int64_t op_ns = t2 - t0;
        if (committed[i].size() == kScoreEvery) {
            const std::int64_t s1 = hostNs();
            auto [fvs, scores] = score(i);
            op_ns += hostNs() - s1;
            check(i, fvs, scores);
        }
        block_us.push_back(static_cast<double>(op_ns) / 1e3);
        if ((op + 1) % kOpsPerBlock == 0)
            endBlock();
    }
    // The round ends by scoring what each registry still holds, so every
    // committed vector is scored exactly once.
    for (std::size_t i = 0; i < kCaptureRegistries; ++i) {
        if (committed[i].empty())
            continue;
        auto [fvs, scores] = score(i);
        check(i, fvs, scores);
    }
    endBlock();
    r.host_s = static_cast<double>(host_ns) / 1e9;
    r.scaled_host_s = scaled_ns / 1e9;
    rec.arm(false);
    r.ops = kOpsPerRound;
    r.virtual_ns = lake.clock().now() - v0;
    if (r.scored != r.ops)
        r.errors.push_back("scored " + std::to_string(r.scored) + " of " +
                           std::to_string(r.ops) + " committed vectors");

    if (traced) {
        auto put = [&r](const char *n, double v, const char *u) {
            r.layers.push_back(Metric{n, v, u});
        };
        const double ops = static_cast<double>(r.ops);
        put("registry.capture_ns",
            static_cast<double>(capture_ns) / (ops * kFeatures), "ns");
        put("registry.commit_ns", static_cast<double>(commit_ns) / ops, "ns");
        put("registry.gather_ns",
            static_cast<double>(gather_ns) /
                static_cast<double>(std::max<std::uint64_t>(1, gathered)),
            "ns");
        const double batches = static_cast<double>(score_calls);
        put("registry.batch", static_cast<double>(r.scored) / batches, "vectors");
        put("ml.cpu_batch_us", lake::toUs(r.virtual_ns) / batches, "us");
        put("ml.host_ns_per_vec",
            static_cast<double>(classify_host_ns) /
                static_cast<double>(std::max<std::uint64_t>(1, classified)),
            "ns");
        std::string why;
        if (!putBudget(r.layers, rec, r.virtual_ns, &why))
            r.errors.push_back("budget does not reconcile: " + why);
    }
    return r;
}

} // namespace

Outcome
runCaptureClosed(const Options &opt)
{
    Outcome out;
    SpanRecorder rec;
    std::vector<double> setup_s, host_vps, p50, p99, p999, overhead;
    CaptureRound first, traced_round;
    const double payload = kFeatures * sizeof(std::uint64_t);
    repeatFor(opt.seconds, opt.trace ? 1 : 3, [&](std::size_t round) {
        CaptureRound r = captureRound(opt.seed, rec, false, !opt.trace);
        for (const std::string &e : r.errors)
            out.fail(e);
        setup_s.push_back(r.scaled_setup_s);
        host_vps.push_back(static_cast<double>(r.ops) / r.scaled_host_s);
        Percentile a = r.op_us.percentile(50.0), b = r.op_us.percentile(99.0),
                   c = r.op_us.percentile(99.9);
        p50.push_back(a.value);
        p99.push_back(b.value);
        p999.push_back(c.value);
        if (round == 0) {
            std::printf("%s\n%s\n%s\n", describe("p50_us", a).c_str(),
                        describe("p99_us", b).c_str(),
                        describe("p999_us", c).c_str());
            if (!a.ok || !b.ok || !c.ok)
                out.fail("a latency percentile has fewer than 10 samples beyond it");
        }
        if (opt.trace) {
            CaptureRound t = captureRound(opt.seed, rec, true, false);
            for (const std::string &e : t.errors)
                out.fail("traced round: " + e);
            overhead.push_back(t.host_s / r.host_s - 1.0);
            traced_round = std::move(t);
        }
        if (round == 0)
            first = std::move(r);
        else if (r.virtual_ns != first.virtual_ns || r.scored != first.scored)
            out.fail("rounds with one seed disagree in virtual time");
    });
    out.attempted = first.ops;
    out.failed = first.failed;
    if (opt.trace) {
        for (const Metric &m : traced_round.layers)
            out.put(m.name, m.value, m.unit);
        out.put("fail_frac",
                static_cast<double>(out.failed) / static_cast<double>(out.attempted),
                "ratio");
        out.put("obs.host_overhead_frac", median(overhead), "ratio");
        const double drift =
            traced_round.virtual_ns == first.virtual_ns &&
                    traced_round.scored == first.scored
                ? 0.0
                : 1.0;
        if (drift != 0.0)
            out.fail("tracing moved virtual time");
        out.put("obs.virtual_drift", drift, "ratio");
        if (!opt.trace_out.empty() && !rec.writeChromeTrace(opt.trace_out))
            out.fail("cannot write " + opt.trace_out);
        return out;
    }
    out.put("setup_s", median(setup_s), "s");
    out.put("rss_mb", peakRssMb(), "MiB");
    out.put("p50_us", median(p50), "us");
    out.put("p99_us", median(p99), "us");
    out.put("p999_us", median(p999), "us");
    out.put("slo_rate_vps",
            static_cast<double>(first.scored) / lake::toSec(first.virtual_ns),
            "vectors/s");
    out.put("host_vps", median(host_vps), "vectors/s");
    out.put("crypt_mbps",
            static_cast<double>(first.ops) * payload /
                lake::toSec(first.virtual_ns) / 1e6,
            "MB/s");
    std::vector<double> mbps;
    for (double v : host_vps)
        mbps.push_back(v * payload / 1e6);
    out.put("host_mbps", median(mbps), "MB/s");
    return out;
}

} // namespace lakebench

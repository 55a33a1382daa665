// Tests of the benchmark itself: its percentile rule, its slo_rate_vps
// search, determinism per seed, agreement across seeds, the traced
// run's invariants, and agreement with BENCHMARK.json.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "score.h"
#include "spans.h"

using namespace lakebench;

namespace {

/** name -> bound of every end-to-end metric in BENCHMARK.json. */
std::map<std::string, double>
specBounds()
{
    std::ifstream f(LAKEBENCH_SPEC);
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string text = ss.str();
    std::map<std::string, double> out;
    std::regex re(R"re(\{\s*"name":\s*"([^"]+)",\s*"unit":\s*"[^"]+",\s*"better":\s*"[a-z]+",\s*"bound":\s*([0-9.]+)\s*\})re");
    for (auto it = std::sregex_iterator(text.begin(), text.end(), re);
         it != std::sregex_iterator(); ++it)
        out[(*it)[1]] = std::stod((*it)[2]);
    return out;
}

std::string
specText()
{
    std::ifstream f(LAKEBENCH_SPEC);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

Options
quick(const char *workload, std::uint64_t seed, bool trace = false)
{
    Options o;
    o.workload = workload;
    o.seed = seed;
    o.seconds = 0.01; // the minimum number of rounds
    o.trace = trace;
    return o;
}

} // namespace

TEST(LatencySample, PrintsCountAndRefusesThinTails)
{
    LatencySample s;
    for (int i = 0; i < 100; ++i)
        s.add(i);
    Percentile p90 = s.percentile(90.0);
    EXPECT_TRUE(p90.ok);
    EXPECT_EQ(p90.value, 89.0);
    EXPECT_EQ(p90.samples, 100u);
    EXPECT_EQ(p90.beyond, 10u);
    EXPECT_NE(describe("p90_us", p90).find("n=100"), std::string::npos);

    Percentile p99 = s.percentile(99.0);
    EXPECT_FALSE(p99.ok);
    EXPECT_EQ(p99.beyond, 1u);
    EXPECT_NE(describe("p99_us", p99).find("refused"), std::string::npos);
    EXPECT_NE(describe("p99_us", p99).find("n=100"), std::string::npos);
}

TEST(LatencySample, RefusalsRankAsInfinitelyLate)
{
    LatencySample s;
    for (int i = 0; i < 1000; ++i)
        s.add(1.0);
    for (int i = 0; i < 20; ++i)
        s.refuse();
    Percentile p99 = s.percentile(99.0);
    EXPECT_TRUE(p99.ok);
    EXPECT_TRUE(std::isinf(p99.value));
    EXPECT_EQ(s.percentile(50.0).value, 1.0);
}

TEST(SloSearch, ReturnsThePassingStepBelowTheFirstFailingOne)
{
    int probes = 0;
    SloSearch s = searchSlo(50000, 1000000, 10000, [&](double rate) {
        ++probes;
        return rate <= 337000;
    });
    EXPECT_EQ(s.rate, 330000);
    EXPECT_FALSE(s.capped);
    EXPECT_TRUE(s.probed.at(330000));
    EXPECT_FALSE(s.probed.at(340000));
    EXPECT_LE(probes, 9);

    SloSearch all = searchSlo(50000, 1000000, 10000, [](double) { return true; });
    EXPECT_EQ(all.rate, 1000000);
    EXPECT_TRUE(all.capped);
    SloSearch none = searchSlo(50000, 1000000, 10000, [](double) { return false; });
    EXPECT_EQ(none.rate, 0.0);
}

TEST(SloSearch, ScoreOpenRateMeetsTheLimitAndTheNextStepFails)
{
    SpanRecorder rec;
    const ScoreShape shape{"score_open", 1};
    auto probe = [&](double vps) {
        RoundResult r = scoreRound(shape, vps, kProbeArrivals, 3, rec, false);
        EXPECT_TRUE(r.errors.empty());
        return meetsSlo(r);
    };
    SloSearch s = searchSlo(300000, 460000, kSearchStepVps, probe);
    ASSERT_GT(s.rate, 300000);
    ASSERT_FALSE(s.capped);
    EXPECT_TRUE(probe(s.rate));
    EXPECT_FALSE(probe(s.rate + kSearchStepVps));
}

TEST(Determinism, SameSeedGivesIdenticalVirtualMetrics)
{
    struct Case
    {
        Outcome (*run)(const Options &);
        const char *name;
        std::vector<std::string> virtual_metrics;
    };
    const std::vector<Case> cases = {
        {runScoreOpen, "score_open",
         {"p50_us", "p99_us", "p999_us", "slo_rate_vps", "crypt_mbps"}},
        {runCaptureClosed, "capture_closed", {"slo_rate_vps", "crypt_mbps"}},
    };
    for (const Case &c : cases) {
        Outcome a = c.run(quick(c.name, 7));
        Outcome b = c.run(quick(c.name, 7));
        ASSERT_TRUE(a.correct) << c.name;
        ASSERT_TRUE(b.correct) << c.name;
        for (const std::string &m : c.virtual_metrics)
            EXPECT_EQ(a.get(m), b.get(m)) << c.name << " " << m;
    }
}

TEST(Determinism, SeedsAgreeWithinTheBenchmarkBounds)
{
    const std::map<std::string, double> bounds = specBounds();
    ASSERT_EQ(bounds.size(), kEndToEnd.size());
    std::map<std::string, std::vector<double>> v;
    for (std::uint64_t seed : {1, 2, 3}) {
        Outcome o = runScoreOpen(quick("score_open", seed));
        ASSERT_TRUE(o.correct);
        for (const char *m :
             {"p50_us", "p99_us", "p999_us", "slo_rate_vps", "crypt_mbps"})
            v[m].push_back(o.get(m));
    }
    for (auto &[m, xs] : v) {
        auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
        EXPECT_LE(*hi / *lo - 1.0, bounds.at(m)) << m;
        EXPECT_NE(*lo, *hi) << m << " does not depend on the seed";
    }
}

TEST(Traced, BudgetReconcilesAndVirtualTimeDoesNotMove)
{
    for (auto run : {runScoreOpen, runCaptureClosed}) {
        Outcome o = run(quick("traced", 5, true));
        for (const std::string &e : o.errors)
            ADD_FAILURE() << e;
        EXPECT_EQ(o.get("obs.virtual_drift"), 0.0);
        double sum = 0.0;
        for (const Metric &m : o.metrics)
            if (m.name.rfind("budget.", 0) == 0)
                sum += m.value;
        EXPECT_NEAR(sum, 1.0, 1e-9);
    }
}

TEST(Spec, BenchmarkJsonDeclaresWhatLakebenchPrints)
{
    const std::string text = specText();
    for (const auto *list : {&kEndToEnd, &kPerLayer}) {
        std::size_t at = 0;
        for (const MetricSpec &m : *list) {
            const std::string want = std::string("\"name\": \"") + m.name +
                                     "\",\n      \"unit\": \"" + m.unit + "\"";
            const std::size_t pos = text.find(want, at);
            EXPECT_NE(pos, std::string::npos) << m.name;
            if (pos != std::string::npos)
                at = pos;
        }
    }
}

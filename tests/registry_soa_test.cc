// Tests for the registry's column store (DESIGN.md §12): Table 1
// semantics against a plain reference model, slot lifecycle under
// window wrap / truncate while batch views are pinned, strided
// MatrixView bit-identity against the dense GEMM path, multi-threaded
// column capture (the TSan sweep target of bench/sanitize.sh), and the
// Listing 4 flow over batch views.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "base/rng.h"
#include "base/time.h"
#include "ml/knn.h"
#include "ml/mlp.h"
#include "registry/manager.h"
#include "registry/registry.h"
#include "registry/schema.h"
#include "registry/scoreserver.h"
#include "registry/soa.h"
#include "shm/arena.h"
#include "storage/linnos.h"

namespace lake::registry {
namespace {

/** A registry whose column store is carved from its own arena. */
struct SoaRig
{
    SoaRig(Schema schema, std::size_t window,
           std::size_t slack = SoaStore::kDefaultSlack)
        : arena(8ull << 20),
          owned([&] {
              std::unique_ptr<Registry> r = Registry::create(
                  "sda1", "bio_latency_prediction", std::move(schema),
                  window, arena, slack);
              if (r == nullptr)
                  std::abort(); // the 8 MiB arena fits every test shape
              return r;
          }()),
          reg(*owned)
    {}

    shm::ShmArena arena;
    std::unique_ptr<Registry> owned;
    Registry &reg;
};

/**
 * Reference model of the Table 1 capture semantics, written the plain
 * way: an open key -> value map that is never cleared and a window of
 * committed FeatureVectors. The column store must read back exactly
 * what this model holds.
 */
class RefRegistry
{
  public:
    RefRegistry(Schema schema, std::size_t window)
        : schema_(std::move(schema)), window_(window)
    {}

    /** Opens, or forward re-stamps, the capture: features are kept. */
    void begin(Nanos ts) { open_begin_ = ts; }

    void set(std::uint64_t key, std::uint64_t v) { open_[key] = v; }
    void add(std::uint64_t key, std::int64_t d)
    {
        open_[key] += static_cast<std::uint64_t>(d);
    }
    void setCol(std::uint32_t col, std::uint64_t v) { set(keyOf(col), v); }
    void addCol(std::uint32_t col, std::int64_t d) { add(keyOf(col), d); }

    /** Freezes the open values; the next capture opens at @p ts. */
    void commit(Nanos ts)
    {
        FeatureVector fv;
        fv.ts_begin = open_begin_;
        fv.ts_end = ts;
        for (const auto &[key, value] : open_) {
            const FeatureSpec *spec = schema_.find(key);
            std::vector<std::uint64_t> entries(spec->entries, 0);
            entries[0] = value;
            // History shift: the previous vector's entry i becomes
            // entry i+1, even when truncate already dropped it.
            if (last_.has_value()) {
                auto prev = last_->values.find(key);
                if (prev != last_->values.end())
                    for (std::uint32_t i = 1; i < spec->entries; ++i)
                        entries[i] = prev->second[i - 1];
            }
            fv.values.emplace(key, std::move(entries));
        }
        last_ = fv;
        if (window_vectors_.size() == window_)
            window_vectors_.pop_front(); // window overwrite
        window_vectors_.push_back(std::move(fv));
        open_begin_ = ts;
    }

    /** The whole window, or the first vector containing @p ts. */
    std::vector<FeatureVector> get(std::optional<Nanos> ts = {}) const
    {
        std::vector<FeatureVector> out;
        for (const FeatureVector &fv : window_vectors_) {
            if (!ts.has_value()) {
                out.push_back(fv);
            } else if (fv.ts_begin <= *ts && *ts <= fv.ts_end) {
                out.push_back(fv);
                break;
            }
        }
        return out;
    }

    /** Drops vectors ending before @p ts (all when nullopt), keeping
     *  the newest when the schema has history. */
    void truncate(std::optional<Nanos> ts = {})
    {
        std::size_t keep = schema_.hasHistory() ? 1 : 0;
        while (window_vectors_.size() > keep &&
               !(ts.has_value() && window_vectors_.front().ts_end >= *ts))
            window_vectors_.pop_front();
    }

    std::size_t pending() const { return window_vectors_.size(); }

  private:
    std::uint64_t keyOf(std::uint32_t col) const
    {
        return featureKey(schema_.features()[col].name);
    }

    Schema schema_;
    std::size_t window_;
    Nanos open_begin_ = 0;
    std::map<std::uint64_t, std::uint64_t> open_;
    std::optional<FeatureVector> last_;
    std::deque<FeatureVector> window_vectors_;
};

Schema
historySchema()
{
    Schema s;
    s.add("pend_ios");
    s.add("lat", 8, 3);
    return s;
}

/** Asserts the registry reads back exactly the model's vectors. */
void
expectSameVectors(const std::vector<FeatureVector> &ref,
                  const std::vector<FeatureVector> &got)
{
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(ref[i].ts_begin, got[i].ts_begin) << "fv " << i;
        EXPECT_EQ(ref[i].ts_end, got[i].ts_end) << "fv " << i;
        EXPECT_EQ(ref[i].values, got[i].values) << "fv " << i;
    }
}

TEST(SoaEquivalenceTest, CaptureCommitMaterializeMatchesLegacy)
{
    RefRegistry ref(historySchema(), 8);
    SoaRig soa(historySchema(), 8);
    const std::uint64_t pend = featureKey("pend_ios");
    const std::uint64_t lat = featureKey("lat");

    ref.begin(100);
    soa.reg.beginFvCapture(100);
    ref.set(pend, 5);
    soa.reg.captureFeature("pend_ios", 5);
    ref.set(lat, 250);
    soa.reg.captureFeature("lat", 250);
    ref.commit(110);
    soa.reg.commitFvCapture(110);
    // Second vector: history lane 1 must inherit 250, the pending
    // counter must carry forward and keep incrementing.
    ref.add(pend, 2);
    soa.reg.captureFeatureIncr("pend_ios", 2);
    ref.set(lat, 400);
    soa.reg.captureFeature("lat", 400);
    ref.commit(120);
    soa.reg.commitFvCapture(120);

    std::vector<FeatureVector> got = soa.reg.getFeatures();
    expectSameVectors(ref.get(), got);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[1].get("pend_ios"), 7u);
    EXPECT_EQ(got[1].values.at(lat)[1], 250u);
}

TEST(SoaEquivalenceTest, ForwardRestampKeepsFeaturesOnBothPlanes)
{
    RefRegistry ref(historySchema(), 8);
    SoaRig soa(historySchema(), 8);
    ref.begin(10);
    soa.reg.beginFvCapture(10);
    ref.set(featureKey("pend_ios"), 3);
    soa.reg.captureFeature("pend_ios", 3);
    ref.begin(50); // re-arm, keep features
    soa.reg.beginFvCapture(50);
    ref.set(featureKey("lat"), 700);
    soa.reg.captureFeature("lat", 700);
    ref.commit(60);
    soa.reg.commitFvCapture(60);

    std::vector<FeatureVector> got = soa.reg.getFeatures();
    expectSameVectors(ref.get(), got);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].ts_begin, 50u);
    EXPECT_EQ(got[0].get("pend_ios"), 3u);
}

// The randomized property pin: any interleaving of captures (by key
// and by column), increments, forward re-stamps, commits, wraps, and
// truncates reads back exactly what the reference model holds.
TEST(SoaEquivalenceTest, RandomizedOpStreamEquivalence)
{
    RefRegistry ref(historySchema(), 8);
    SoaRig soa(historySchema(), 8);
    const std::uint64_t pend = featureKey("pend_ios");
    const std::uint64_t lat = featureKey("lat");
    Rng rng(1234);

    Nanos ts = 0;
    ref.begin(ts);
    soa.reg.beginFvCapture(ts);
    std::vector<Nanos> commits;
    for (int op = 0; op < 600; ++op) {
        int what = static_cast<int>(rng.uniformInt(0, 9));
        std::uint64_t v = rng.uniformInt(0, 5000);
        switch (what) {
        case 0:
        case 1:
            ref.set(pend, v);
            soa.reg.captureFeature("pend_ios", v);
            break;
        case 2:
        case 3:
            ref.set(lat, v);
            soa.reg.captureFeature("lat", v);
            break;
        case 4:
            ref.add(pend, static_cast<std::int64_t>(v));
            soa.reg.captureFeatureIncr("pend_ios",
                                       static_cast<std::int64_t>(v));
            break;
        case 5:
            ref.setCol(1, v);
            soa.reg.captureFeatureCol(1, v);
            break;
        case 6:
            ref.addCol(0, static_cast<std::int64_t>(v));
            soa.reg.captureFeatureIncrCol(
                0, static_cast<std::int64_t>(v));
            break;
        case 7: // forward re-stamp
            ts += rng.uniformInt(1, 50);
            ref.begin(ts);
            soa.reg.beginFvCapture(ts);
            break;
        case 8:
            ts += rng.uniformInt(1, 50);
            ref.commit(ts);
            soa.reg.commitFvCapture(ts);
            commits.push_back(ts);
            expectSameVectors(ref.get(), soa.reg.getFeatures());
            break;
        case 9:
            if (!commits.empty() && rng.uniformInt(0, 3) == 0) {
                Nanos cut =
                    commits[rng.uniformInt(0, commits.size() - 1)];
                ref.truncate(cut);
                soa.reg.truncateFeatures(cut);
                expectSameVectors(ref.get(), soa.reg.getFeatures());
            }
            break;
        }
        EXPECT_EQ(ref.pending(), soa.reg.pendingCount());
    }
    // Timestamp-indexed retrieval agrees too.
    for (Nanos t : commits)
        expectSameVectors(ref.get(t), soa.reg.getFeatures(t));
}

// Column captures from many threads while one capture is open — the
// relaxed-atomic lanes plus the ever-captured bitmap are what
// `bench/sanitize.sh thread -L registry` sweeps here.
TEST(SoaConcurrencyTest, ColumnCaptureFromManyThreads)
{
    Schema s;
    for (int c = 0; c < 4; ++c)
        s.add("own" + std::to_string(c));
    s.add("shared");
    SoaRig soa(std::move(s), 8);
    soa.reg.beginFvCapture(0);

    constexpr int kThreads = 4;
    constexpr std::uint64_t kIters = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (std::uint64_t i = 1; i <= kIters; ++i) {
                soa.reg.captureFeatureCol(static_cast<std::uint32_t>(t),
                                          i);
                soa.reg.captureFeatureIncrCol(kThreads, 1);
            }
        });
    for (std::thread &th : threads)
        th.join();
    soa.reg.commitFvCapture(10);

    std::vector<FeatureVector> got = soa.reg.getFeatures();
    ASSERT_EQ(got.size(), 1u);
    // Each "own" column was last written with kIters by its one owner;
    // the shared counter saw every increment exactly once.
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(got[0].get("own" + std::to_string(t)), kIters);
    EXPECT_EQ(got[0].get("shared"), kThreads * kIters);
}

// Captures keep landing while the owner seals vector after vector: a
// capture racing a seal must land in that vector or the next, so an
// incremental counter never loses an increment across commits.
TEST(SoaConcurrencyTest, IncrementsRacingCommitsAreNeverLost)
{
    Schema s;
    s.add("ctr");
    SoaRig soa(std::move(s), 4);
    soa.reg.beginFvCapture(0);

    constexpr int kThreads = 4;
    constexpr std::uint64_t kIters = 20000;
    std::atomic<int> running{kThreads};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            for (std::uint64_t i = 0; i < kIters; ++i)
                soa.reg.captureFeatureIncrCol(0, 1);
            running.fetch_sub(1);
        });
    Nanos ts = 1;
    while (running.load() > 0)
        soa.reg.commitFvCapture(ts++);
    for (std::thread &th : threads)
        th.join();
    soa.reg.commitFvCapture(ts);

    std::vector<FeatureVector> got = soa.reg.getFeatures();
    ASSERT_FALSE(got.empty());
    EXPECT_EQ(got.back().get("ctr"), kThreads * kIters);
}

// Satellite 6 regression: a window wrap must recycle sealed slots
// without invalidating an in-flight batch view — recycling defers
// (Retired) until the last view unpins.
TEST(SoaViewTest, WindowWrapDefersRecycleBehindPinnedView)
{
    Schema s;
    s.add("x");
    SoaRig soa(std::move(s), 4, /*slack=*/6);
    soa.reg.beginFvCapture(0);
    for (std::uint64_t i = 0; i < 4; ++i) {
        soa.reg.captureFeature("x", 100 + i);
        soa.reg.commitFvCapture(10 * (i + 1));
    }

    FvBatchView view = soa.reg.batchView();
    ASSERT_EQ(view.size(), 4u);
    std::vector<ml::MatrixView> before = view.matrixViews();

    // Wrap the whole window while the view is pinned.
    for (std::uint64_t i = 4; i < 8; ++i) {
        soa.reg.captureFeature("x", 100 + i);
        soa.reg.commitFvCapture(10 * (i + 1));
    }
    EXPECT_GT(soa.reg.store().retiredCount(), 0u);

    // The pinned rows still read their original bytes — scalar lanes,
    // timestamps, and the float rows a concurrent GEMM would consume.
    for (std::size_t r = 0; r < 4; ++r) {
        EXPECT_EQ(view.get(r, featureKey("x")), 100 + r);
        EXPECT_EQ(view.tsEnd(r), 10 * (r + 1));
    }
    std::vector<ml::MatrixView> after = view.matrixViews();
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t b = 0; b < before.size(); ++b) {
        ASSERT_EQ(before[b].rows(), after[b].rows());
        for (std::size_t r = 0; r < before[b].rows(); ++r)
            EXPECT_EQ(std::memcmp(before[b].row(r), after[b].row(r),
                                  before[b].cols() * sizeof(float)),
                      0);
    }
    // The new window reads the new values through a fresh view.
    FvBatchView fresh = soa.reg.batchView();
    ASSERT_EQ(fresh.size(), 4u);
    for (std::size_t r = 0; r < 4; ++r)
        EXPECT_EQ(fresh.get(r, featureKey("x")), 104 + r);

    // Dropping the views frees every deferred slot.
    fresh = FvBatchView();
    view = FvBatchView();
    EXPECT_EQ(soa.reg.store().retiredCount(), 0u);
}

TEST(SoaViewTest, TruncateDefersRecycleBehindPinnedView)
{
    Schema s;
    s.add("x"); // no history: truncate(nullopt) drops everything
    SoaRig soa(std::move(s), 8);
    soa.reg.beginFvCapture(0);
    for (std::uint64_t i = 0; i < 5; ++i) {
        soa.reg.captureFeature("x", i);
        soa.reg.commitFvCapture(10 * (i + 1));
    }
    FvBatchView view = soa.reg.batchView();
    soa.reg.truncateFeatures();
    EXPECT_EQ(soa.reg.pendingCount(), 0u);
    EXPECT_GT(soa.reg.store().retiredCount(), 0u);
    for (std::size_t r = 0; r < 5; ++r)
        EXPECT_EQ(view.get(r, featureKey("x")), r);
    view = FvBatchView();
    EXPECT_EQ(soa.reg.store().retiredCount(), 0u);
    // The store keeps working after the deferred free.
    soa.reg.captureFeature("x", 99);
    soa.reg.commitFvCapture(100);
    EXPECT_EQ(soa.reg.getFeatures()[0].get("x"), 99u);
}

// The strided zero-copy windows must be bit-identical inputs to the
// GEMM/kNN substrate: forward over matrixViews() == forward over a
// dense gathered copy, float for float.
TEST(SoaViewTest, MatrixViewsBitIdenticalToDenseCompute)
{
    Schema s;
    for (int c = 0; c < 5; ++c)
        s.add("f" + std::to_string(c));
    SoaRig soa(std::move(s), 16);
    soa.reg.beginFvCapture(0);
    Rng rng(7);
    const std::size_t n = 12;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::uint32_t c = 0; c < 5; ++c)
            soa.reg.captureFeatureCol(c, rng.uniformInt(0, 999));
        soa.reg.commitFvCapture(10 * (i + 1));
    }
    FvBatchView view = soa.reg.batchView();
    std::vector<ml::MatrixView> views = view.matrixViews();

    // Dense gather (what a materialize + pack step would have staged).
    ml::Matrix dense(n, 5);
    std::size_t r = 0;
    for (const ml::MatrixView &mv : views) {
        ASSERT_EQ(mv.cols(), 5u);
        ASSERT_GE(mv.stride(), mv.cols());
        for (std::size_t vr = 0; vr < mv.rows(); ++vr, ++r)
            std::copy(mv.row(vr), mv.row(vr) + 5, dense.row(r));
    }
    ASSERT_EQ(r, n);

    ml::MlpConfig mc;
    mc.input = 5;
    mc.hidden = {16};
    mc.output = 2;
    Rng mrng(42);
    ml::Mlp mlp(mc, mrng);
    ml::Matrix from_views = mlp.forward(views);
    ml::Matrix from_dense = mlp.forward(dense);
    ASSERT_EQ(from_views.rows(), from_dense.rows());
    EXPECT_EQ(std::memcmp(from_views.data(), from_dense.data(),
                          from_dense.size() * sizeof(float)),
              0);

    ml::Knn knn(5, 3);
    Rng krng(9);
    for (int p = 0; p < 64; ++p) {
        float ref[5];
        for (float &f : ref)
            f = static_cast<float>(krng.uniform(0.0, 999.0));
        knn.add(ref, p % 2);
    }
    EXPECT_EQ(knn.classifyBatch(ml::MatrixView(dense.data(), n, 5, 5)),
              knn.classifyBatch(dense.data(), n));
    std::vector<int> strided;
    for (const ml::MatrixView &mv : views) {
        std::vector<int> part = knn.classifyBatch(mv);
        strided.insert(strided.end(), part.begin(), part.end());
    }
    EXPECT_EQ(strided, knn.classifyBatch(dense.data(), n));
}

TEST(SoaViewTest, SelectRepinsRowSubsetInOrder)
{
    Schema s;
    s.add("x");
    SoaRig soa(std::move(s), 8);
    soa.reg.beginFvCapture(0);
    for (std::uint64_t i = 0; i < 6; ++i) {
        soa.reg.captureFeature("x", i);
        soa.reg.commitFvCapture(10 * (i + 1));
    }
    FvBatchView view = soa.reg.batchView();
    FvBatchView sub = view.select({4, 1, 1});
    ASSERT_EQ(sub.size(), 3u);
    EXPECT_EQ(sub.get(0, featureKey("x")), 4u);
    EXPECT_EQ(sub.get(1, featureKey("x")), 1u);
    EXPECT_EQ(sub.get(2, featureKey("x")), 1u);
    // The subset outlives the parent view.
    view = FvBatchView();
    EXPECT_EQ(sub.tsEnd(0), 50u);
    std::vector<FeatureVector> mat = sub.materialize();
    ASSERT_EQ(mat.size(), 3u);
    EXPECT_EQ(mat[2].get("x"), 1u);
}

// scoreFeatures(view) must agree with the vector batch entry point:
// through the registered view classifier when one exists, and by
// materializing when only a vector classifier is installed.
TEST(SoaScoreTest, ViewScoringMatchesLegacyScoring)
{
    auto build = [](SoaRig &soa) {
        soa.reg.beginFvCapture(0);
        Rng rng(21);
        for (std::size_t i = 0; i < 10; ++i) {
            soa.reg.captureFeatureCol(0, rng.uniformInt(0, 99));
            soa.reg.captureFeatureCol(1, rng.uniformInt(0, 99));
            soa.reg.commitFvCapture(10 * (i + 1));
        }
    };
    Schema s;
    s.add("a");
    s.add("b");
    Schema s2 = s;

    Classifier vector_fn =
        [](const std::vector<FeatureVector> &fvs) {
            std::vector<float> out;
            for (const FeatureVector &fv : fvs)
                out.push_back(static_cast<float>(fv.get("a")) +
                              2.0f * static_cast<float>(fv.get("b")));
            return out;
        };
    ViewClassifier view_fn = [](const FvBatchView &v) {
        std::vector<float> out;
        for (std::size_t r = 0; r < v.size(); ++r)
            out.push_back(
                static_cast<float>(v.value(r, 0)) +
                2.0f * static_cast<float>(v.value(r, 1)));
        return out;
    };

    SoaRig both(std::move(s), 16);
    ASSERT_TRUE(
        both.reg.registerClassifier(Arch::Cpu, vector_fn).isOk());
    ASSERT_TRUE(
        both.reg.registerViewClassifier(Arch::Cpu, view_fn).isOk());
    build(both);
    std::vector<float> via_view =
        both.reg.scoreFeatures(both.reg.batchView(), 200);
    std::vector<float> via_vector =
        both.reg.scoreFeatures(both.reg.getFeatures(), 200);
    EXPECT_EQ(via_view, via_vector);

    // Vector-classifier-only registry: the view overload materializes.
    SoaRig shim(std::move(s2), 16);
    ASSERT_TRUE(
        shim.reg.registerClassifier(Arch::Cpu, vector_fn).isOk());
    build(shim);
    EXPECT_EQ(shim.reg.scoreFeatures(shim.reg.batchView(), 200),
              via_vector);
}

// submitView through the ScoreServer: single-row views coalesce across
// registries into one dispatch, every callback sees the full batch
// depth, and the scores match the synchronous path.
TEST(SoaScoreTest, ScoreServerCoalescesSubmittedViews)
{
    Clock clock;
    shm::ShmArena arena(8ull << 20);
    RegistryManager mgr(clock, arena);

    ViewClassifier view_fn = [](const FvBatchView &v) {
        std::vector<float> out;
        for (std::size_t r = 0; r < v.size(); ++r)
            out.push_back(static_cast<float>(v.value(r, 0)));
        return out;
    };
    Schema s;
    s.add("x");
    for (const char *name : {"sda1", "sdb1"}) {
        ASSERT_TRUE(
            mgr.createRegistry(name, "sys", s, 64).isOk());
        ASSERT_TRUE(mgr.find(name, "sys")
                        ->registerViewClassifier(Arch::Cpu, view_fn)
                        .isOk());
    }
    ScoringConfig cfg;
    cfg.enabled = true;
    cfg.max_batch = 8;
    cfg.queue_capacity = 32;
    ASSERT_TRUE(mgr.enableScoring(cfg).isOk());

    std::vector<float> scores;
    std::vector<std::size_t> batches;
    for (std::uint64_t i = 0; i < 8; ++i) {
        const char *name = (i % 2) ? "sdb1" : "sda1";
        Registry *reg = mgr.find(name, "sys");
        if (!reg->captureOpen())
            reg->beginFvCapture(clock.now());
        reg->captureFeatureCol(0, 100 + i);
        reg->commitFvCapture(clock.now());
        Status st = mgr.scorer()->submitView(
            name, "sys", reg->tailView(1), 0,
            [&](const ScoreResult &r) {
                ASSERT_TRUE(r.status.isOk());
                ASSERT_EQ(r.scores.size(), 1u);
                scores.push_back(r.scores[0]);
                batches.push_back(r.batch);
            });
        ASSERT_TRUE(st.isOk());
        clock.advance(1_us);
    }
    // The 8th submission hit max_batch and flushed the whole group;
    // callbacks run in drain order (requests grouped per registry), so
    // compare as a set: every vector scored once, with its own value,
    // and every callback saw the full coalesced batch depth.
    ASSERT_EQ(scores.size(), 8u);
    std::sort(scores.begin(), scores.end());
    for (std::uint64_t i = 0; i < 8; ++i) {
        EXPECT_FLOAT_EQ(scores[i], 100.0f + static_cast<float>(i));
        EXPECT_EQ(batches[i], 8u);
    }
}

TEST(SoaStoreTest, ColumnsAreCacheLineIsolated)
{
    shm::ShmArena arena(4ull << 20);
    Schema s;
    s.add("a");
    s.add("hist", 8, 4);
    s.add("b");
    std::unique_ptr<SoaStore> store =
        SoaStore::create(s, 8, SoaStore::kDefaultSlack, arena);
    ASSERT_NE(store, nullptr);

    auto line = [](const void *p) {
        return reinterpret_cast<std::uintptr_t>(p) / 64;
    };
    // Every column region starts on its own cache line, and no two
    // columns' lanes ever share one (concurrent captures of different
    // features never false-share).
    for (std::uint32_t c = 0; c < 3; ++c)
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(
                      store->laneAddr(c, 0, 0)) %
                      64,
                  0u)
            << "column " << c;
    const std::uint32_t entries[3] = {1, 4, 1};
    for (std::uint32_t c = 0; c + 1 < 3; ++c) {
        const std::uint64_t *last = store->laneAddr(
            c, entries[c] - 1,
            static_cast<std::uint32_t>(store->capacity() - 1));
        const std::uint64_t *next = store->laneAddr(c + 1, 0, 0);
        EXPECT_LT(line(last), line(next));
    }
}

TEST(SoaStoreTest, CreateFailsCleanlyWhenArenaTooSmall)
{
    shm::ShmArena tiny(4096);
    Schema s;
    s.add("hist", 8, 64);
    EXPECT_EQ(SoaStore::create(s, 4096, /*slack=*/64, tiny), nullptr);
}

// A shared arena too small for a registry's store is reported, never
// a panic: createRegistry returns ResourceExhausted and registers
// nothing.
TEST(SoaStoreTest, ManagerReportsArenaExhaustion)
{
    Clock clock;
    shm::ShmArena tiny(4096);
    RegistryManager mgr(clock, tiny);
    Schema s;
    s.add("hist", 8, 64);
    Status st = mgr.createRegistry("sda1", "sys", s, 4096);
    EXPECT_EQ(st.code(), Code::ResourceExhausted);
    EXPECT_EQ(mgr.find("sda1", "sys"), nullptr);
    EXPECT_EQ(mgr.registryCount(), 0u);
    EXPECT_EQ(tiny.used(), 0u);
}

// A standalone registry (no manager, no arena from the caller) sizes
// a private arena to fit its store, so batch views work on it exactly
// as on a manager-built one.
TEST(SoaViewTest, StandaloneRegistryServesViews)
{
    Registry reg("r", "s", Schema().add("x"), 4);
    reg.beginFvCapture(0);
    for (std::uint64_t i = 0; i < 6; ++i) {
        reg.captureFeature("x", 10 + i);
        reg.commitFvCapture(10 * (i + 1));
    }
    FvBatchView all = reg.batchView();
    ASSERT_EQ(all.size(), 4u); // the window wrapped twice
    for (std::size_t r = 0; r < 4; ++r)
        EXPECT_EQ(all.get(r, featureKey("x")), 12 + r);
    FvBatchView tail = reg.tailView(2);
    ASSERT_EQ(tail.size(), 2u);
    EXPECT_EQ(tail.tsEnd(0), 50u);
    EXPECT_EQ(tail.tsEnd(1), 60u);
    std::vector<ml::MatrixView> mv = tail.matrixViews();
    ASSERT_FALSE(mv.empty());
    EXPECT_EQ(mv[0].row(0)[0], 14.0f);
}

// The storage e2e integration pin: Listing 4 as runE2e runs it (LinnOS
// schema, seal-time float encoder, completions capturing the latency
// history and pending count, read arrivals committing, a flush pinning
// the window, selecting the queued rows by ts_end, scoring the strided
// views and truncating) must score exactly what the reference model's
// vectors score when featurized and packed densely.
TEST(SoaE2eTest, Listing4OverViewsMatchesReferenceModel)
{
    constexpr std::size_t kHist = storage::kLinnosHistory;
    constexpr std::size_t kBatchMax = 8;
    const std::array<std::string, kHist> lat_names = {
        "io_lat0", "io_lat1", "io_lat2", "io_lat3"};
    Schema schema;
    schema.add("pend_ios");
    for (const std::string &f : lat_names)
        schema.add(f);
    const std::size_t window = kBatchMax * 4;
    RefRegistry ref(schema, window);
    SoaRig soa(schema, window);

    auto encode = [](std::uint64_t pend,
                     const std::array<std::uint32_t, kHist> &hist,
                     float *out) {
        storage::encodeLinnosFeatures(static_cast<std::uint32_t>(pend),
                                      hist, out);
    };
    soa.reg.store().setFloatEncoder(
        storage::kLinnosFeatures,
        [encode](const SoaStore::RowReader &row, float *out) {
            std::array<std::uint32_t, kHist> hist{};
            for (std::size_t h = 0; h < kHist; ++h)
                hist[h] = static_cast<std::uint32_t>(
                    row.value(static_cast<std::uint32_t>(1 + h)));
            encode(row.value(0), hist, out);
        });
    Rng mrng(42);
    ml::Mlp mlp(ml::MlpConfig::linnos(), mrng);

    Rng rng(31);
    Nanos ts = 0;
    ref.begin(ts);
    soa.reg.beginFvCapture(ts);
    std::array<std::uint32_t, kHist> history{};
    std::vector<Nanos> queued; // commit timestamps of queued reads
    std::size_t flushes = 0, scored = 0;
    for (int op = 0; op < 2000; ++op) {
        ts += rng.uniformInt(1, 20);
        switch (rng.uniformInt(0, 3)) {
        case 0: { // a read completes: shift in its latency
            for (std::size_t i = kHist - 1; i > 0; --i)
                history[i] = history[i - 1];
            history[0] =
                static_cast<std::uint32_t>(rng.uniformInt(50, 3000));
            for (std::uint32_t h = 0; h < kHist; ++h) {
                ref.setCol(1 + h, history[h]);
                soa.reg.captureFeatureCol(1 + h, history[h]);
            }
            std::uint64_t pend = rng.uniformInt(0, 40);
            ref.setCol(0, pend);
            soa.reg.captureFeatureCol(0, pend);
            break;
        }
        case 1:
        case 2: // a read arrives: commit and queue it
            ref.commit(ts);
            soa.reg.commitFvCapture(ts);
            queued.push_back(ts);
            if (queued.size() < kBatchMax)
                break;
            [[fallthrough]];
        case 3: { // flush the queued reads
            if (queued.empty())
                break;
            std::unordered_set<Nanos> want(queued.begin(), queued.end());
            FvBatchView view;
            {
                FvBatchView all = soa.reg.batchView();
                std::vector<std::size_t> rows;
                for (std::size_t i = 0; i < all.size(); ++i)
                    if (want.count(all.tsEnd(i)))
                        rows.push_back(i);
                view = all.select(rows);
            }
            std::vector<FeatureVector> fvs;
            for (FeatureVector &fv : ref.get())
                if (want.count(fv.ts_end))
                    fvs.push_back(std::move(fv));
            ASSERT_EQ(view.size(), fvs.size());

            ml::Matrix dense(fvs.size(), storage::kLinnosFeatures);
            for (std::size_t r = 0; r < fvs.size(); ++r) {
                EXPECT_EQ(view.tsEnd(r), fvs[r].ts_end);
                std::array<std::uint32_t, kHist> hist{};
                for (std::size_t h = 0; h < kHist; ++h)
                    hist[h] = static_cast<std::uint32_t>(
                        fvs[r].get(lat_names[h]));
                encode(fvs[r].get("pend_ios"), hist, dense.row(r));
            }
            ml::Matrix from_views = mlp.forward(view.matrixViews());
            ml::Matrix from_ref = mlp.forward(dense);
            ASSERT_EQ(from_views.size(), from_ref.size());
            EXPECT_EQ(std::memcmp(from_views.data(), from_ref.data(),
                                  from_ref.size() * sizeof(float)),
                      0)
                << "flush " << flushes;
            ++flushes;
            scored += fvs.size();
            queued.clear();
            ref.truncate();
            soa.reg.truncateFeatures();
            break;
        }
        }
        ASSERT_EQ(ref.pending(), soa.reg.pendingCount());
    }
    EXPECT_GT(flushes, 100u);
    EXPECT_GT(scored, 500u);
}

} // namespace
} // namespace lake::registry

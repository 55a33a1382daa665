#ifndef LAKE_REGISTRY_REGISTRY_H
#define LAKE_REGISTRY_REGISTRY_H

/**
 * @file
 * One feature registry: a named combination of a model, a feature-vector
 * schema, a capture window, and the classifier/policy hooks (§5).
 *
 * Storage is a SoaStore column store carved from a lakeShm arena
 * (DESIGN.md §12): the registry manager's shared arena, or a private
 * one a standalone registry sizes to fit.
 *
 * Concurrency model, per §5.3: while a capture is open, any thread may
 * call captureFeature / captureFeatureIncr — each capture is a relaxed
 * atomic store or add into the open slot's column lane. begin/commit/
 * get/truncate/score are registry-owner operations (the subsystem that
 * created the registry), serialized by the caller the way the I/O path
 * serializes them in the paper's case study.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "base/time.h"
#include "policy/policy.h"
#include "registry/schema.h"
#include "registry/soa.h"

namespace lake::registry {

/**
 * A committed (frozen) feature vector:
 * <numfeatures, kvpair*, ts_begin, ts_end> in the paper's notation.
 * The vector half of Table 1 (getFeatures, Classifier) hands these out,
 * materialized from the registry's column store.
 */
struct FeatureVector
{
    Nanos ts_begin = 0;
    Nanos ts_end = 0;
    /** key -> entries; [0] most recent, [1..] history (§5.2). */
    std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> values;

    /** Scalar read of a feature's most recent entry (0 if absent). */
    std::uint64_t get(std::uint64_t key) const;
    /** Scalar read by feature name. */
    std::uint64_t get(const std::string &name) const;
};

/** Which implementation a classifier targets (Table 1's arch column). */
enum class Arch
{
    Cpu,
    Gpu,
    Xpu, //!< any other accelerator
};

/**
 * Batch inference callback: scores one batch of feature vectors.
 * Registered per Arch; the active execution policy picks which runs.
 */
using Classifier =
    std::function<std::vector<float>(const std::vector<FeatureVector> &)>;

/**
 * Zero-copy batch inference callback: scores a pinned batch view
 * directly (typically via view.matrixViews() into the strided GEMM/kNN
 * substrate). Registered alongside the vector Classifier;
 * scoreFeatures(view) prefers it and falls back to materializing for a
 * registry that only has a vector Classifier.
 */
using ViewClassifier = std::function<std::vector<float>(const FvBatchView &)>;

/**
 * A feature registry.
 */
class Registry
{
  public:
    /**
     * A standalone registry: its column store lives in a private arena
     * sized to fit it (SoaStore::footprint with the default slack).
     * @param name   registry name (e.g. the block device, "sda1")
     * @param sys    owning subsystem (e.g. "bio_latency_prediction")
     * @param schema feature-vector format
     * @param window ring capacity in feature vectors
     */
    Registry(std::string name, std::string sys, Schema schema,
             std::size_t window);

    /**
     * A registry whose column store is carved from @p arena, with
     * @p slack spare slots for pinned batch views (SoaStore::create).
     * @return nullptr when the arena cannot fit the store
     */
    static std::unique_ptr<Registry>
    create(std::string name, std::string sys, Schema schema,
           std::size_t window, shm::ShmArena &arena,
           std::size_t slack = SoaStore::kDefaultSlack);

    /** Pinned in place: the store refers to this registry's schema. */
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Registry name. */
    const std::string &name() const { return name_; }
    /** Owning subsystem. */
    const std::string &sys() const { return sys_; }
    /** Schema in force. */
    const Schema &schema() const { return schema_; }
    /** Ring capacity in feature vectors. */
    std::size_t window() const { return window_; }

    /** The column store behind every capture, commit and view. */
    SoaStore &store() const { return *store_; }

    /// @name Capture (Table 1: begin/capture/capture_incr/commit)
    /// @{

    /**
     * Opens a new feature vector with begin timestamp @p ts.
     *
     * Calling begin while a capture is already open is a *re-stamp*:
     * the open window's begin moves forward to @p ts and every feature
     * captured so far is kept (the case study re-arms its window on
     * the submission path without an intervening commit). A re-stamp
     * may never move time backwards — @p ts earlier than the open
     * begin panics, since it would fabricate a window that pretends to
     * predate its own features.
     */
    void beginFvCapture(Nanos ts);

    /** True while a capture window is open. */
    bool captureOpen() const { return capture_open_; }

    /**
     * Sets feature @p key on the open vector. Callable from any thread
     * while a capture is open. Unknown keys panic (schema bug).
     */
    void captureFeature(std::uint64_t key, std::uint64_t value);
    /** Name-keyed convenience overload. */
    void captureFeature(const std::string &name, std::uint64_t value);

    /** Atomically increments feature @p key by @p delta. */
    void captureFeatureIncr(std::uint64_t key, std::int64_t delta);
    /** Name-keyed convenience overload. */
    void captureFeatureIncr(const std::string &name, std::int64_t delta);

    /**
     * Column-indexed capture: the hash-free hot path. @p col is the
     * schema declaration order index (Schema::columnOf, interned once
     * by the instrumentation site); the capture is a single
     * relaxed-atomic store into the open slot's column lane.
     */
    void captureFeatureCol(std::uint32_t col, std::uint64_t value);
    /** Column-indexed atomic increment. */
    void captureFeatureIncrCol(std::uint32_t col, std::int64_t delta);

    /**
     * Freezes the open vector with end timestamp @p ts and seals it
     * into the window (overwriting the oldest when full). History features
     * inherit entries 1..N-1 from the previous committed vector.
     * Implicitly opens the next capture at @p ts so incremental
     * counters (pending I/Os) persist across vectors.
     */
    void commitFvCapture(Nanos ts);

    /// @}
    /// @name Batch retrieval (Table 1: get/truncate)
    /// @{

    /**
     * With a timestamp: the first vector whose [ts_begin, ts_end]
     * contains @p ts. Without (nullopt): the whole ring, oldest first.
     */
    std::vector<FeatureVector>
    getFeatures(std::optional<Nanos> ts = std::nullopt) const;

    /**
     * Removes vectors older than @p ts (all vectors when nullopt).
     * When the schema declares history features, the most recent
     * vector is always preserved so future vectors can populate their
     * historical entries (§5.4).
     */
    void truncateFeatures(std::optional<Nanos> ts = std::nullopt);

    /** Committed vectors currently in the window. */
    std::size_t pendingCount() const { return store_->sealedCount(); }

    /**
     * Pinned zero-copy view over every committed vector, oldest first.
     * The view keeps its slots' bytes immutable until it destructs —
     * window wraps and truncates defer recycling behind it.
     */
    FvBatchView batchView();

    /** Pinned view over the newest @p n committed vectors. */
    FvBatchView tailView(std::size_t n);

    /// @}
    /// @name Inference dispatch (Table 1: register/score)
    /// @{

    /**
     * Installs the classifier for @p arch.
     *
     * Only Cpu and Gpu are dispatchable: policy::Engine has no third
     * leg, so an Arch::Xpu registration used to land in a write-only
     * slot that scoreFeatures could never reach. It is now rejected
     * with InvalidArgument instead of silently swallowed.
     */
    Status registerClassifier(Arch arch, Classifier fn);

    /** True when a classifier is installed for @p arch. */
    bool hasClassifier(Arch arch) const;

    /** Installs the zero-copy batch-view classifier for @p arch (same
     *  Arch::Xpu rejection as registerClassifier). */
    Status registerViewClassifier(Arch arch, ViewClassifier fn);

    /** True when a view classifier is installed for @p arch. */
    bool hasViewClassifier(Arch arch) const;

    /** Installs the execution policy (owned by the registry). */
    void registerPolicy(std::unique_ptr<policy::ExecPolicy> p);

    /**
     * Runs inference on @p fvs: consults the policy (batch size = the
     * batch), dispatches to the chosen arch's classifier (falling back
     * to the CPU one when the GPU variant is absent), and returns one
     * score per vector.
     * @param now virtual time, given to the policy
     */
    std::vector<float> scoreFeatures(const std::vector<FeatureVector> &fvs,
                                     Nanos now);

    /**
     * Zero-copy batch-view overload: same policy decision (batch size =
     * view.size()), dispatched to the engine's view classifier when one
     * is registered — no gather, no pack, reg_pack_bytes += 0 — and
     * otherwise materialized through the vector classifier (which
     * counts its staged bytes).
     */
    std::vector<float> scoreFeatures(const FvBatchView &view, Nanos now);

    /** Engine the last scoreFeatures dispatch used. */
    policy::Engine lastEngine() const { return last_engine_; }

    /// @}

  private:
    /** Shared member set-up of both construction paths; no store yet. */
    struct NoStore
    {};
    Registry(NoStore, std::string name, std::string sys, Schema schema,
             std::size_t window);

    /** Schema column of @p key; panics on an undeclared key. */
    std::uint32_t columnFor(std::uint64_t key) const;

    /** Picks the engine for a batch of @p batch vectors at @p now. */
    policy::Engine decideEngine(std::size_t batch, Nanos now);

    std::string name_;
    std::string sys_;
    Schema schema_;
    std::size_t window_;

    Nanos open_begin_ = 0;
    bool capture_open_ = false;

    /** A standalone registry's private arena; null when the store is
     *  carved from a shared one. Declared before store_, which frees
     *  into it on destruction. */
    std::unique_ptr<shm::ShmArena> own_arena_;
    std::unique_ptr<SoaStore> store_;

    Classifier cpu_classifier_;
    Classifier gpu_classifier_;
    ViewClassifier cpu_view_classifier_;
    ViewClassifier gpu_view_classifier_;
    std::unique_ptr<policy::ExecPolicy> policy_;
    policy::Engine last_engine_ = policy::Engine::Cpu;
};

} // namespace lake::registry

#endif // LAKE_REGISTRY_REGISTRY_H

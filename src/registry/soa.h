#ifndef LAKE_REGISTRY_SOA_H
#define LAKE_REGISTRY_SOA_H

/**
 * @file
 * The registry's storage: a zero-copy SoA column store (DESIGN.md §12).
 *
 * Every registry keeps its capture window here: a schema-indexed,
 * cache-line-tiled structure-of-arrays column store carved directly
 * from a lakeShm arena.
 *
 *  - captureFeature / captureFeatureIncr write through a column index
 *    resolved once from the Schema (no hashing, no allocation) with
 *    relaxed atomics into the column's *open lane*: one word on its own
 *    cache line (no false sharing between features), never cleared, so
 *    point-in-time features are overwritten and incremental counters
 *    persist across commits;
 *  - commit is a slot *seal* — the open lanes snapshotted into a
 *    fixed-stride slot, history-lane inheritance, a presence-mask
 *    snapshot, one float-row encode — plus a ring-index append;
 *  - a ScoreServer batch is an FvBatchView: a pinned, zero-copy window
 *    over committed slots whose float rows feed the blocked GEMM and
 *    batched kNN substrate as strided MatrixViews, with no gather/pack
 *    step (reg_pack_bytes stays 0 on this path).
 *
 * Slot lifecycle: free → open (the next slot to seal, exactly one per
 * store) → sealed (in the window ring) → recycled. Recycling a slot
 * still referenced by an in-flight FvBatchView is *deferred* until the
 * last view unpins it, so a window wrap or truncate can never rewrite
 * bytes a batch is reading.
 *
 * Table 1 semantics (tests/registry_soa_test.cc checks them against a
 * reference model): a column captured once stays present in every later
 * vector, its lane 0 is the open lane's value at the seal (incremental
 * counters persist), and history lanes 1..E-1 inherit from the previous
 * sealed vector, entry i becoming entry i+1.
 * materialize() turns sealed slots back into FeatureVectors for the
 * vector half of the API.
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "base/aligned.h"
#include "base/ring_buffer.h"
#include "base/time.h"
#include "ml/matrix.h"
#include "registry/schema.h"
#include "shm/arena.h"

namespace lake::registry {

struct FeatureVector;
class SoaStore;

/**
 * A pinned, zero-copy batch window over committed slots.
 *
 * Move-only RAII: every referenced slot stays unrecycled (its bytes
 * immutable) until the view destructs. Views are cheap to create —
 * pinning is a counter bump — and compose: ScoreServer coalescing
 * append()s per-request views into one dispatch view, and selection
 * (e2e's timestamp matching) re-pins a row subset.
 */
class FvBatchView
{
  public:
    FvBatchView() = default;
    ~FvBatchView();

    FvBatchView(FvBatchView &&other) noexcept
        : blocks_(std::move(other.blocks_)), rows_(other.rows_)
    {
        other.blocks_.clear();
        other.rows_ = 0;
    }
    FvBatchView &operator=(FvBatchView &&other) noexcept;

    FvBatchView(const FvBatchView &) = delete;
    FvBatchView &operator=(const FvBatchView &) = delete;

    /** Total committed vectors (rows) in the view. */
    std::size_t size() const { return rows_; }
    bool empty() const { return rows_ == 0; }

    /** Capture-window timestamps of row @p row. */
    Nanos tsBegin(std::size_t row) const;
    Nanos tsEnd(std::size_t row) const;

    /** Scalar read by schema key: lane 0, 0 when never captured —
     *  exactly FeatureVector::get. */
    std::uint64_t get(std::size_t row, std::uint64_t key) const;

    /** Lane read by column index (entry 0 = most recent). */
    std::uint64_t value(std::size_t row, std::uint32_t col,
                        std::uint32_t entry = 0) const;

    /**
     * The zero-copy float windows: one strided MatrixView per maximal
     * run of consecutive slots, in row order. Feeding these to the
     * view-classifier GEMM path moves zero bytes per scored vector.
     */
    std::vector<ml::MatrixView> matrixViews() const;

    /** Re-pinned view of a row subset (rows in the given order). */
    FvBatchView select(const std::vector<std::size_t> &rows) const;

    /** Steals @p other's rows onto the back of this view. */
    void append(FvBatchView other);

    /** FeatureVector copy of every row (the vector-API path). */
    std::vector<FeatureVector> materialize() const;

    /** Bytes a FeatureVector gather of this batch would have staged. */
    std::size_t packBytesAvoided() const;

  private:
    friend class SoaStore;

    /** Rows from one store: slots in view order, each pinned. */
    struct Block
    {
        SoaStore *store;
        std::vector<std::uint32_t> slots;
    };

    const Block &blockOf(std::size_t row, std::size_t *idx) const;

    std::vector<Block> blocks_;
    std::size_t rows_ = 0;
};

/**
 * The columnar slot store backing one registry.
 *
 * Layout, carved in one arena allocation: per schema column c (declared
 * order) a region of one open-lane cache line plus entries(c) lanes ×
 * capacity slots of u64, each region 64-byte aligned and padded —
 * concurrent captures of different features never share a cache line,
 * and only the open lanes are ever written concurrently (via relaxed
 * atomic_ref; see DESIGN.md §12 for why relaxed suffices). The float
 * plane (capacity × roundUp(floatCols, 16) floats) is carved lazily at
 * the first seal so stores that never score pay no float memory.
 *
 * Threading: set()/add() are callable from any thread while a capture
 * is open (same contract as Registry::captureFeature). seal(),
 * truncate(), and view creation are owner/scorer operations; the
 * internal mutex serializes slot lifecycle against pin/unpin from
 * concurrent view destruction only.
 */
class SoaStore
{
  public:
    /** Reads one sealing slot's lanes for the float encoder. */
    class RowReader
    {
      public:
        /** Lane @p entry of column @p col; 0 when never captured. */
        std::uint64_t value(std::uint32_t col,
                            std::uint32_t entry = 0) const;

      private:
        friend class SoaStore;
        RowReader(const SoaStore *store, std::uint32_t slot)
            : store_(store), slot_(slot)
        {}
        const SoaStore *store_;
        std::uint32_t slot_;
    };

    /**
     * Seal-time float-row encoder: writes floatCols() floats for the
     * sealing slot. The default encodes lane 0 of every column in
     * schema order (featureCount floats).
     */
    using FloatEncoder =
        std::function<void(const RowReader &row, float *out)>;

    /**
     * Default spare slots beyond window + 1 (sealed window plus the
     * open slot). They absorb recycle deferral while batch views are in
     * flight: a store panics only when every spare slot is pinned *and*
     * the window wraps, so size slack to the deepest concurrent batch.
     */
    static constexpr std::size_t kDefaultSlack = 8;

    /**
     * Carves a store from @p arena. @p window is the sealed-slot ring
     * capacity (same meaning as the registry window); total slots are
     * window + 1 + @p slack.
     * @return nullptr when the arena cannot fit the column plane
     */
    static std::unique_ptr<SoaStore> create(const Schema &schema,
                                            std::size_t window,
                                            std::size_t slack,
                                            shm::ShmArena &arena);

    /**
     * Arena bytes a store of this shape takes with the default float
     * encoding: the column plane plus the float plane carved at the
     * first seal.
     */
    static std::size_t footprint(const Schema &schema, std::size_t window,
                                 std::size_t slack);

    ~SoaStore();

    SoaStore(const SoaStore &) = delete;
    SoaStore &operator=(const SoaStore &) = delete;

    /// @name Capture plane (any thread while a capture is open)
    /// @{

    /** Sets column @p col's open lane (relaxed atomic). */
    void
    set(std::uint32_t col, std::uint64_t value)
    {
        std::atomic_ref<std::uint64_t> lane(plane_[cols_[col].open]);
        lane.store(value, std::memory_order_relaxed);
        markEver(col);
    }

    /** Adds @p delta to column @p col's open lane (relaxed atomic RMW). */
    void
    add(std::uint32_t col, std::int64_t delta)
    {
        std::atomic_ref<std::uint64_t> lane(plane_[cols_[col].open]);
        lane.fetch_add(static_cast<std::uint64_t>(delta),
                       std::memory_order_relaxed);
        markEver(col);
    }

    /// @}
    /// @name Slot lifecycle (owner-serialized)
    /// @{

    /**
     * Seals the open slot as [ts_begin, ts_end]: snapshots the presence
     * mask and the open lanes into lane 0, inherits history lanes,
     * encodes the float row, appends to the sealed ring (recycling the
     * overwritten slot on a window wrap), and claims the next open
     * slot. A capture racing the seal lands in this vector or the next,
     * never in neither.
     * @return features present in the sealed vector (the fv_len metric)
     */
    std::size_t seal(Nanos ts_begin, Nanos ts_end);

    /**
     * Installs the float encoder; must run before the first seal (the
     * float plane's width is fixed at first carve). @p float_cols = 0
     * keeps the default raw-lane encoding.
     */
    void setFloatEncoder(std::size_t float_cols, FloatEncoder fn);

    /**
     * Drops sealed slots older than @p ts front-first, keeping at least
     * @p keep_newest (the history-preservation rule), recycling each —
     * deferred while pinned. Nullopt @p ts drops unconditionally.
     */
    void truncate(std::optional<Nanos> ts, std::size_t keep_newest);

    /// @}
    /// @name Batch access
    /// @{

    /** Sealed vectors currently in the window ring. */
    std::size_t sealedCount() const;

    /** Pinned view over every sealed slot, oldest first. */
    FvBatchView viewAll();

    /** Pinned view over the newest @p n sealed slots, oldest first. */
    FvBatchView viewTail(std::size_t n);

    /**
     * FeatureVector copies of the sealed window, oldest first; with
     * @p ts, only the first vector whose [ts_begin, ts_end] contains
     * it (Registry::getFeatures). Only the selected slots are copied.
     */
    std::vector<FeatureVector> materialize(std::optional<Nanos> ts) const;

    /// @}

    /** Floats per encoded row (columns of every MatrixView). */
    std::size_t floatCols() const { return float_cols_; }
    /** Float-plane row stride (floats between consecutive slots). */
    std::size_t floatStride() const { return float_stride_; }
    /** Total slots (window + 1 + slack). */
    std::size_t capacity() const { return capacity_; }
    /** Slots whose recycling is deferred behind a pinned view. */
    std::size_t retiredCount() const;

    /** Raw u64 address of (col, entry, slot) — alignment tests only. */
    const std::uint64_t *
    laneAddr(std::uint32_t col, std::uint32_t entry,
             std::uint32_t slot) const
    {
        return &plane_[cols_[col].base + entry * capacity_ + slot];
    }

  private:
    friend class FvBatchView;

    /** Per-column geometry: u64 offsets into plane_. */
    struct Column
    {
        std::size_t open;       //!< plane_ index of the open lane
        std::size_t base;       //!< plane_ index of (lane 0, slot 0)
        std::size_t lane_off;   //!< offset into last_lanes_
        std::uint32_t entries;
    };

    enum class SlotState : std::uint8_t
    {
        Free,
        Open,
        Sealed,
        Retired, //!< recycled while pinned; freed at last unpin
    };

    SoaStore(const Schema &schema, std::size_t window, std::size_t slack,
             shm::ShmArena &arena);

    std::uint64_t lane(std::uint32_t col, std::uint32_t entry,
                       std::uint32_t slot) const
    {
        return plane_[cols_[col].base + entry * capacity_ + slot];
    }

    void
    markEver(std::uint32_t col)
    {
        std::atomic_ref<std::uint64_t> w(ever_[col >> 6]);
        std::uint64_t bit = 1ull << (col & 63);
        if (!(w.load(std::memory_order_relaxed) & bit))
            w.fetch_or(bit, std::memory_order_relaxed);
    }

    bool presentAt(std::uint32_t slot, std::uint32_t col) const
    {
        return (presence_[slot * words_ + (col >> 6)] >>
                (col & 63)) & 1u;
    }

    void ensureFloatPlane();
    void claimLocked();
    void recycleLocked(std::uint32_t slot);
    void pinSlots(const std::vector<std::uint32_t> &slots);
    void unpinSlots(const std::vector<std::uint32_t> &slots);
    FeatureVector materializeSlot(std::uint32_t slot) const;

    const Schema &schema_;
    shm::ShmArena &arena_;
    std::size_t capacity_;
    std::size_t words_;      //!< presence words per slot
    std::vector<Column> cols_;
    /** Column index → schema key (materialize's reverse mapping). */
    std::vector<std::uint64_t> keys_;

    shm::ShmOffset plane_off_ = shm::kNullOffset;
    std::uint64_t *plane_ = nullptr;

    std::size_t float_cols_;
    std::size_t float_stride_;
    FloatEncoder encoder_;
    shm::ShmOffset fplane_off_ = shm::kNullOffset;
    float *fplane_ = nullptr;

    /** Ever-captured column bits (monotonic: a captured feature stays
     *  present). Relaxed-atomic words: capture threads set them. */
    std::vector<std::uint64_t> ever_;

    /** Presence snapshot per sealed slot (capacity × words_). */
    std::vector<std::uint64_t> presence_;
    base::AlignedVec<Nanos> ts_begin_;
    base::AlignedVec<Nanos> ts_end_;

    /** Shadow of the newest sealed vector's lanes (Σ entries u64s):
     *  history inheritance and carry-forward never read a slot that a
     *  window wrap might already have recycled. */
    std::vector<std::uint64_t> last_lanes_;
    std::vector<std::uint64_t> last_presence_;
    bool has_last_ = false;

    /** The slot the next seal fills; owner-serialized (captures never
     *  read it). */
    std::uint32_t open_slot_ = 0;

    mutable std::mutex mu_; //!< guards ring_/free_/state_/pins_
    RingBuffer<std::uint32_t> ring_;
    std::vector<std::uint32_t> free_;
    std::vector<SlotState> state_;
    std::vector<std::uint32_t> pins_;
};

} // namespace lake::registry

#endif // LAKE_REGISTRY_SOA_H

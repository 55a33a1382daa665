#ifndef LAKE_REGISTRY_SCHEMA_H
#define LAKE_REGISTRY_SCHEMA_H

/**
 * @file
 * Feature-vector schemas.
 *
 * §5.2: "Each registry has a schema... a map from feature key (name) to
 * a tuple of <size, entries>". Values are untyped bytes of the given
 * size; entries > 1 declares the history idiom, where index 0 is the
 * most recent sample and indices 1..N-1 are the samples carried forward
 * from the previous N-1 feature vectors.
 */

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace lake::registry {

/** Stable 64-bit key for a feature name (FNV-1a; never 0). */
std::uint64_t featureKey(const std::string &name);

/** Declared shape of one feature. */
struct FeatureSpec
{
    std::string name;
    std::uint32_t size = 8;   //!< bytes per entry (LAKE stores <= 8)
    std::uint32_t entries = 1; //!< 1 = scalar, N > 1 = history array
};

/** The format of every feature vector in a registry. */
class Schema
{
  public:
    /**
     * Declares a feature.
     * @param name    feature key
     * @param size    bytes per entry (1..8)
     * @param entries history depth (>= 1)
     * @return *this for chaining
     */
    Schema &add(const std::string &name, std::uint32_t size = 8,
                std::uint32_t entries = 1);

    /** Looks up a feature by key; nullptr when undeclared. */
    const FeatureSpec *find(std::uint64_t key) const;

    /** columnOf's undeclared-key sentinel. */
    static constexpr std::uint32_t kNoColumn = 0xffffffffu;

    /**
     * Declaration-order column index of @p key — the column store's
     * hash-free capture coordinate; kNoColumn when undeclared.
     */
    std::uint32_t columnOf(std::uint64_t key) const;

    /** Number of declared features. */
    std::size_t featureCount() const { return by_key_.size(); }

    /** True when any feature declares history (entries > 1). */
    bool hasHistory() const { return has_history_; }

    /** Declared features in declaration order. */
    const std::vector<FeatureSpec> &features() const { return order_; }

  private:
    std::unordered_map<std::uint64_t, std::size_t> by_key_;
    std::vector<FeatureSpec> order_;
    bool has_history_ = false;
};

} // namespace lake::registry

#endif // LAKE_REGISTRY_SCHEMA_H

/**
 * @file
 * The shared last-level cache with a pluggable management policy.
 *
 * Block state is struct-of-arrays, set-major like BasicCache: u64 tags
 * (kInvalidTag, ~0, marks an invalid way), u32 tenant owners read only
 * after a tag match, and u8 dirty flags. A 16-way tag probe reads two
 * 64-byte host lines. Recency lives in the policy, not here.
 */

#ifndef MRP_CACHE_POLICY_CACHE_HPP
#define MRP_CACHE_POLICY_CACHE_HPP

#include <memory>
#include <string>
#include <vector>

#include "cache/basic_cache.hpp"
#include "cache/llc_policy.hpp"
#include "stats/level_stats.hpp"

namespace mrp::cache {

/** Outcome of one LLC access. */
struct LlcResult
{
    bool hit = false;
    bool bypassed = false;
    VictimBlock victim; //!< LLC block displaced by the fill, if any
};

/**
 * Set-associative LLC whose victim selection, bypass, and promotion
 * behaviour are delegated to an LlcPolicy. All access types flow
 * through access(); writeback fills install dirty.
 */
class PolicyCache
{
  public:
    /** Way sets travel as a 64-bit WayMask, so way 64 and up cannot
     * be named; the constructor refuses wider caches. */
    static constexpr std::uint32_t kMaxWays = 64;

    PolicyCache(Addr bytes, std::uint32_t ways,
                std::unique_ptr<LlcPolicy> policy, unsigned cores);

    const CacheGeometry& geometry() const { return geom_; }
    LlcPolicy& policy() { return *policy_; }

    /**
     * Attach a passive observer. Observers are notified in
     * registration order and must outlive every later access; with
     * none attached the hot path pays one empty-range check per event.
     */
    void addObserver(LlcObserver& obs) { observers_.push_back(&obs); }

    /**
     * Perform one access: lookup, policy notification, and — on a
     * miss — the fill with policy-controlled bypass and victim choice.
     */
    LlcResult access(const AccessInfo& info);

    /** Non-mutating presence check. */
    bool contains(Addr addr) const;

    stats::LevelStats& stats() { return stats_; }
    const stats::LevelStats& stats() const { return stats_; }

    /** LLC demand misses attributed to a core. */
    std::uint64_t demandMissesOf(CoreId core) const;

    /** Valid blocks currently owned by tenant @p owner (O(cache)). */
    std::uint64_t ownerBlockCount(std::uint32_t owner) const;

    /** Zero all statistics (end of warmup). */
    void resetStats();

  private:
    static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};

    int findWay(std::size_t base, std::uint64_t tag,
                std::uint32_t owner) const;

    CacheGeometry geom_;
    std::unique_ptr<LlcPolicy> policy_;
    std::vector<LlcObserver*> observers_;
    // sets * ways each, set-major
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint32_t> owners_; //!< tenant id; 0 unpartitioned
    std::vector<std::uint8_t> dirty_;
    stats::LevelStats stats_;
    std::vector<std::uint64_t> demandMissesPerCore_;
};

} // namespace mrp::cache

#endif // MRP_CACHE_POLICY_CACHE_HPP

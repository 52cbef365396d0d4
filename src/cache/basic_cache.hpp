/**
 * @file
 * A plain true-LRU write-back cache used for the L1D and L2 levels.
 *
 * The upper levels do not need pluggable policies (the paper's
 * techniques manage only the LLC), so this class is kept simple and
 * fast: linear tag search within a set and 64-bit LRU stamps.
 *
 * Block state is held struct-of-arrays, set-major: a u64 tag array, a
 * u64 recency-stamp array and a u8 dirty array, each indexed
 * set * ways + way. A tag probe of an 8-way set reads one 64-byte host
 * line. An invalid way holds the tag kInvalidTag (~0, which no real tag
 * reaches: tags are block addresses, at most 58 bits) and stamp 0, while
 * every valid way has a stamp of at least 1. So lookup is a plain tag
 * compare, and "first free way, else the least recently used" is one
 * first-minimum scan over the stamps.
 *
 * access(), contains() and find() are defined in this header: the
 * hierarchy's L1 probe runs once per memory record and inlines them
 * into the core's record loop (see Hierarchy::access).
 */

#ifndef MRP_CACHE_BASIC_CACHE_HPP
#define MRP_CACHE_BASIC_CACHE_HPP

#include <string>
#include <vector>

#include "cache/geometry.hpp"
#include "stats/level_stats.hpp"
#include "util/types.hpp"

namespace mrp::cache {

/** Description of a block displaced by a fill. */
struct VictimBlock
{
    bool valid = false;   //!< a block was displaced
    Addr blockAddress = 0;
    bool dirty = false;
};

/** True-LRU set-associative write-back cache. */
class BasicCache
{
  public:
    BasicCache(std::string name, Addr bytes, std::uint32_t ways);

    const std::string& name() const { return name_; }
    const CacheGeometry& geometry() const { return geom_; }

    /**
     * Look up @p addr; on a hit, update recency and (for writes) the
     * dirty bit.
     * @return true on hit
     */
    bool
    access(Addr addr, bool is_write)
    {
        ++stats_.demandAccesses;
        const std::size_t i = find(addr);
        if (i != kAbsent) {
            stamps_[i] = ++useClock_;
            if (is_write)
                dirty_[i] = 1;
            ++stats_.demandHits;
            return true;
        }
        ++stats_.demandMisses;
        return false;
    }

    /** Non-mutating presence check. */
    bool contains(Addr addr) const { return find(addr) != kAbsent; }

    /**
     * Refresh recency of a block if present (no statistics recorded);
     * used by prefetch probes.
     * @return true if the block was present
     */
    bool touch(Addr addr);

    /**
     * Install the block of @p addr, assumed absent.
     * @param dirty install in dirty state (writeback allocation)
     * @return the displaced block, if any
     */
    VictimBlock fill(Addr addr, bool dirty);

    /** Mark an (assumed present) block dirty; returns false if absent. */
    bool markDirty(Addr addr);

    /** Invalidate a block if present; returns its prior state. */
    VictimBlock invalidate(Addr addr);

    stats::LevelStats& stats() { return stats_; }
    const stats::LevelStats& stats() const { return stats_; }

  private:
    static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};
    static constexpr std::size_t kAbsent = ~std::size_t{0};

    /** Index of @p addr's block in the arrays, or kAbsent. */
    std::size_t
    find(Addr addr) const
    {
        const std::uint64_t tag = geom_.tag(addr);
        const std::size_t base =
            static_cast<std::size_t>(geom_.setIndex(addr)) * geom_.ways();
        const std::uint64_t* tags = &tags_[base];
        for (std::uint32_t w = 0; w < geom_.ways(); ++w)
            if (tags[w] == tag)
                return base + w;
        return kAbsent;
    }

    std::string name_;
    CacheGeometry geom_;
    // sets * ways each, set-major
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> stamps_;
    std::vector<std::uint8_t> dirty_;
    std::uint64_t useClock_ = 0;
    stats::LevelStats stats_;
};

} // namespace mrp::cache

#endif // MRP_CACHE_BASIC_CACHE_HPP

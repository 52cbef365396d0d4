/**
 * @file
 * Per-cache-level event counters.
 */

#ifndef MRP_STATS_LEVEL_STATS_HPP
#define MRP_STATS_LEVEL_STATS_HPP

#include <cstdint>

namespace mrp::stats {

/**
 * Counters kept by each cache level. "Demand" accesses are the loads
 * and stores issued by the core; prefetches and writebacks are counted
 * separately so that MPKI is computed over demand misses only.
 */
struct LevelStats
{
    std::uint64_t demandAccesses = 0;
    std::uint64_t demandHits = 0;
    std::uint64_t demandMisses = 0;
    std::uint64_t prefetchAccesses = 0;
    std::uint64_t prefetchHits = 0;
    std::uint64_t prefetchMisses = 0;
    std::uint64_t writebackAccesses = 0;
    std::uint64_t writebackHits = 0;
    std::uint64_t writebackMisses = 0;
    std::uint64_t bypasses = 0;
    std::uint64_t fills = 0; //!< blocks installed (kept by the LLC only)
    std::uint64_t evictions = 0;
    std::uint64_t dirtyEvictions = 0;

    /** Zero all counters (used at the end of the warmup phase). */
    void reset() { *this = LevelStats{}; }

    std::uint64_t
    totalAccesses() const
    {
        return demandAccesses + prefetchAccesses + writebackAccesses;
    }

    std::uint64_t
    totalMisses() const
    {
        return demandMisses + prefetchMisses + writebackMisses;
    }

    /**
     * Self-consistency: demand and writeback accesses split exactly
     * into hits and misses, prefetch hits/misses never exceed prefetch
     * accesses (the private levels count prefetch fills without a
     * lookup, so their split can be empty), dirty evictions are a
     * subset of evictions, and bypasses only ever happen on misses. A
     * false return means a counting bug somewhere in the cache model,
     * not a property of the workload.
     */
    bool
    consistent() const
    {
        return demandAccesses == demandHits + demandMisses &&
               prefetchHits + prefetchMisses <= prefetchAccesses &&
               writebackAccesses == writebackHits + writebackMisses &&
               dirtyEvictions <= evictions && bypasses <= totalMisses();
    }
};

} // namespace mrp::stats

#endif // MRP_STATS_LEVEL_STATS_HPP

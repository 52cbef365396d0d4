/**
 * @file
 * Stream prefetcher modeled on the paper's description (§4.1): a
 * stream begins on an L1 miss, waits for at most two misses to decide
 * its direction, then generates prefetch requests; 16 streams are
 * tracked with LRU replacement.
 *
 * The stream table is held as parallel per-slot arrays, and a miss
 * costs the same whatever the stream count:
 *  - Region index. A stream's region is its last miss block shifted
 *    right by log2Ceil(window), so a region spans at least `window`
 *    blocks and a stream that matches a miss in region r lies in region
 *    r-1, r or r+1. A small power-of-two table of 64-bit slot masks,
 *    hashed by region, yields the candidates: the OR of those three
 *    buckets. Candidates are checked exactly in slot order, so the
 *    lowest-indexed true match wins; a hash collision only adds
 *    candidates that the exact check drops.
 *  - Recency list. Live streams sit in a doubly linked MRU-to-LRU list
 *    of slot ids next to a mask of free slots, so "first free slot,
 *    else the least recently used" is the mask's lowest set bit, else
 *    the list tail.
 */

#ifndef MRP_PREFETCH_STREAM_PREFETCHER_HPP
#define MRP_PREFETCH_STREAM_PREFETCHER_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace mrp::prefetch {

/** Tuning knobs of the stream prefetcher. */
struct StreamPrefetcherConfig
{
    unsigned streams = 16;  //!< concurrently tracked streams (1..64)
    unsigned degree = 2;    //!< prefetches issued per triggering miss
    unsigned distance = 4;  //!< how far ahead of the miss to run
    unsigned window = 16;   //!< miss-to-stream matching window (blocks)
};

/** One-core stream prefetcher. */
class StreamPrefetcher
{
  public:
    explicit StreamPrefetcher(
        const StreamPrefetcherConfig& cfg = StreamPrefetcherConfig{});

    /**
     * Observe a demand L1 miss to @p addr and append the block-aligned
     * byte addresses to prefetch to @p out.
     */
    void onL1Miss(Addr addr, std::vector<Addr>& out);

    /** Total prefetch addresses generated. */
    std::uint64_t issued() const { return issued_; }

    /** Drop all stream state (e.g.\ between runs). */
    void reset();

    /**
     * Start accuracy/coverage tracking (telemetry). Recently issued
     * prefetches are remembered in a small direct-mapped filter; a
     * demand hit on a filtered block counts as useful, a demand miss
     * on one as late. Tracking counters cover only the period after
     * this call, so attach it at the start of the measurement window.
     */
    void enableTracking();

    bool trackingEnabled() const { return tracking_; }

    /** Demand L1 *hit* on @p addr (only called while tracking). */
    void observeDemandHit(Addr addr);

    /** Prefetches issued since tracking was enabled. */
    std::uint64_t trackedIssued() const
    {
        return issued_ - issuedAtEnable_;
    }
    /** Tracked prefetches later hit by demand. */
    std::uint64_t useful() const { return useful_; }
    /** Tracked prefetches demand-missed before (or despite) arrival. */
    std::uint64_t late() const { return late_; }
    /** Demand L1 misses observed while tracking. */
    std::uint64_t demandMisses() const { return demandMisses_; }

    /** useful / issued over the tracked period (0 when nothing issued). */
    double accuracy() const;
    /** useful / (useful + demand misses): fraction of would-be misses
     * the prefetcher hid. */
    double coverage() const;

    /** Upper bound on StreamPrefetcherConfig::streams. */
    static constexpr unsigned kMaxStreams = 64;

  private:
    /** Direct-mapped recently-prefetched filter (block addresses). */
    static constexpr std::size_t kFilterSlots = 4096;
    static constexpr Addr kNoBlock = ~Addr{0};

    /** Region buckets (a power of two, twice kMaxStreams). */
    static constexpr unsigned kBucketBits = 7;
    /** Fibonacci hash: a region's bucket is the top kBucketBits bits of
     * region * kHashMul. */
    static constexpr std::uint64_t kHashMul = 0x9e3779b97f4a7c15ull;
    static constexpr unsigned kBucketShift = 64 - kBucketBits;
    /** End-of-list marker in the recency links. */
    static constexpr std::uint8_t kNil = 0xff;

    /** Bucket of the region holding block @p blk. */
    std::size_t bucketOf(Addr blk) const
    {
        return ((blk >> regionShift_) * kHashMul) >> kBucketShift;
    }
    /** Unlink live slot @p s from the recency list. */
    void unlink(std::uint8_t s);
    /** Insert slot @p s at the MRU end of the recency list. */
    void pushMru(std::uint8_t s);

    StreamPrefetcherConfig cfg_;
    unsigned regionShift_; //!< log2Ceil(window)
    // One entry per stream slot.
    std::vector<Addr> lastBlock_; //!< most recent matched miss
    std::vector<Addr> head_;      //!< last block prefetched
    std::vector<int> direction_;  //!< 0 until confirmed, else ±1
    std::array<std::uint8_t, kMaxStreams> prev_{}; //!< toward MRU
    std::array<std::uint8_t, kMaxStreams> next_{}; //!< toward LRU
    std::uint8_t mru_ = kNil;
    std::uint8_t lru_ = kNil;
    std::uint64_t free_ = 0; //!< bit i set: slot i holds no stream
    /** Bit i of bucket b set: live slot i's region hashes to b. */
    std::array<std::uint64_t, std::size_t{1} << kBucketBits> buckets_{};
    std::uint64_t issued_ = 0;
    bool tracking_ = false;
    std::vector<Addr> filter_; //!< empty until enableTracking
    std::uint64_t issuedAtEnable_ = 0;
    std::uint64_t useful_ = 0;
    std::uint64_t late_ = 0;
    std::uint64_t demandMisses_ = 0;
};

} // namespace mrp::prefetch

#endif // MRP_PREFETCH_STREAM_PREFETCHER_HPP

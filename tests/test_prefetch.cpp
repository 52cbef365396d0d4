/**
 * @file
 * Tests for the stream prefetcher: direction learning after at most
 * two misses, degree/distance behaviour, stream capacity with LRU
 * replacement, and a differential check against a plain
 * array-of-structs model of the same stream table.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "prefetch/stream_prefetcher.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace mrp::prefetch {
namespace {

std::vector<Addr>
missSeq(StreamPrefetcher& pf, const std::vector<Addr>& blocks)
{
    std::vector<Addr> out;
    for (const Addr b : blocks)
        pf.onL1Miss(b << kBlockShift, out);
    return out;
}

TEST(StreamPrefetcherTest, NoPrefetchOnFirstTwoMisses)
{
    StreamPrefetcher pf;
    std::vector<Addr> out;
    pf.onL1Miss(100 << kBlockShift, out);
    EXPECT_TRUE(out.empty()); // stream allocated, no direction yet
}

TEST(StreamPrefetcherTest, AscendingStreamPrefetchesAhead)
{
    StreamPrefetcher pf;
    const auto out = missSeq(pf, {100, 101, 102, 103});
    ASSERT_FALSE(out.empty());
    // All prefetched addresses run ahead of the last miss direction.
    for (const Addr a : out)
        EXPECT_GT(blockAddr(a), 101u);
    EXPECT_GT(pf.issued(), 0u);
}

TEST(StreamPrefetcherTest, DescendingStreamDetected)
{
    StreamPrefetcher pf;
    const auto out = missSeq(pf, {200, 199, 198});
    ASSERT_FALSE(out.empty());
    for (const Addr a : out)
        EXPECT_LT(blockAddr(a), 199u);
}

TEST(StreamPrefetcherTest, DegreeLimitsPerTriggerIssue)
{
    StreamPrefetcherConfig cfg;
    cfg.degree = 2;
    cfg.distance = 16;
    StreamPrefetcher pf(cfg);
    std::vector<Addr> out;
    pf.onL1Miss(10 << kBlockShift, out);
    pf.onL1Miss(11 << kBlockShift, out);
    const std::size_t first_burst = out.size();
    EXPECT_LE(first_burst, 2u);
}

TEST(StreamPrefetcherTest, DistanceBoundsRunahead)
{
    StreamPrefetcherConfig cfg;
    cfg.degree = 8;
    cfg.distance = 4;
    StreamPrefetcher pf(cfg);
    std::vector<Addr> out;
    for (Addr b = 50; b < 60; ++b)
        pf.onL1Miss(b << kBlockShift, out);
    for (const Addr a : out)
        EXPECT_LE(blockAddr(a), 59u + 4u);
}

TEST(StreamPrefetcherTest, RandomMissesProduceNoStreams)
{
    StreamPrefetcher pf;
    std::vector<Addr> out;
    // Far-apart blocks never match a stream window.
    for (Addr b = 0; b < 64; ++b)
        pf.onL1Miss((b * 1000) << kBlockShift, out);
    EXPECT_TRUE(out.empty());
}

TEST(StreamPrefetcherTest, TracksSixteenConcurrentStreams)
{
    StreamPrefetcherConfig cfg;
    StreamPrefetcher pf(cfg);
    std::vector<Addr> out;
    // Interleave 16 streams; all should be confirmed and prefetching.
    for (int round = 0; round < 4; ++round)
        for (Addr s = 0; s < 16; ++s)
            pf.onL1Miss((s * 100000 + 7 + round) << kBlockShift, out);
    EXPECT_GT(out.size(), 16u);
}

TEST(StreamPrefetcherTest, LruReplacesColdStreams)
{
    StreamPrefetcher pf;
    std::vector<Addr> out;
    // Allocate 16 streams, then a 17th: the first stream must be the
    // one replaced, so re-missing near stream 0's region allocates
    // fresh (no immediate prefetch).
    for (Addr s = 0; s < 17; ++s)
        pf.onL1Miss((s * 100000) << kBlockShift, out);
    out.clear();
    pf.onL1Miss((0 * 100000 + 1) << kBlockShift, out);
    EXPECT_TRUE(out.empty()); // had to re-learn stream 0
}

TEST(StreamPrefetcherTest, ResetDropsState)
{
    StreamPrefetcher pf;
    std::vector<Addr> out;
    pf.onL1Miss(100 << kBlockShift, out);
    pf.onL1Miss(101 << kBlockShift, out);
    pf.reset();
    out.clear();
    pf.onL1Miss(102 << kBlockShift, out);
    EXPECT_TRUE(out.empty()); // stream was forgotten
}

// ---------------------------------------------------------------- //
// Accuracy/coverage tracking (telemetry)

TEST(StreamTrackingTest, DisabledByDefaultAndCountsFromEnable)
{
    StreamPrefetcher pf;
    EXPECT_FALSE(pf.trackingEnabled());
    missSeq(pf, {100, 101, 102, 103}); // issues before tracking
    const std::uint64_t pre = pf.issued();
    ASSERT_GT(pre, 0u);
    pf.enableTracking();
    EXPECT_TRUE(pf.trackingEnabled());
    EXPECT_EQ(pf.trackedIssued(), 0u); // pre-enable issues excluded
    EXPECT_EQ(pf.accuracy(), 0.0);     // no tracked issues yet
    EXPECT_EQ(pf.coverage(), 0.0);     // no hits or misses yet
}

TEST(StreamTrackingTest, DemandHitOnPrefetchedBlockIsUseful)
{
    StreamPrefetcher pf;
    pf.enableTracking();
    // Two learning misses confirm the stream and issue the runahead.
    const auto out = missSeq(pf, {100, 101});
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(pf.trackedIssued(), out.size());
    EXPECT_EQ(pf.demandMisses(), 2u);

    pf.observeDemandHit(out.front());
    EXPECT_EQ(pf.useful(), 1u);
    // A hit consumes the filter entry: the same block is not counted
    // as useful twice.
    pf.observeDemandHit(out.front());
    EXPECT_EQ(pf.useful(), 1u);
    // Hits on never-prefetched blocks are ignored.
    pf.observeDemandHit(999999 << kBlockShift);
    EXPECT_EQ(pf.useful(), 1u);

    EXPECT_EQ(pf.accuracy(),
              1.0 / static_cast<double>(out.size()));
    EXPECT_EQ(pf.coverage(), 1.0 / (1.0 + 2.0));
}

TEST(StreamTrackingTest, DemandMissOnPrefetchedBlockIsLate)
{
    StreamPrefetcher pf;
    pf.enableTracking();
    const auto out = missSeq(pf, {100, 101});
    ASSERT_FALSE(out.empty());
    // Demand-missing a prefetched block means the prefetch was late;
    // the slot is consumed, so it cannot later count as useful too.
    missSeq(pf, {blockAddr(out.front())});
    EXPECT_EQ(pf.late(), 1u);
    pf.observeDemandHit(out.front());
    EXPECT_EQ(pf.useful(), 0u);
}

TEST(StreamTrackingTest, PerfectStreamReachesFullAccuracy)
{
    // In the hierarchy, prefetched blocks become L1 *hits*, so the
    // prefetcher sees onL1Miss only for uncovered blocks. Model that:
    // two learning misses, then every issued prefetch is demand-hit.
    StreamPrefetcher pf;
    pf.enableTracking();
    const auto out = missSeq(pf, {100, 101});
    ASSERT_FALSE(out.empty());
    for (const Addr a : out)
        pf.observeDemandHit(a);
    EXPECT_EQ(pf.useful(), out.size());
    EXPECT_EQ(pf.accuracy(), 1.0);
    // Coverage counts the two learning misses against the hits.
    const double u = static_cast<double>(out.size());
    EXPECT_EQ(pf.coverage(), u / (u + 2.0));
}

TEST(StreamTrackingTest, ResetRestartsTheTrackedPeriod)
{
    StreamPrefetcher pf;
    pf.enableTracking();
    const auto out = missSeq(pf, {100, 101});
    ASSERT_FALSE(out.empty());
    pf.observeDemandHit(out.front());
    EXPECT_EQ(pf.useful(), 1u);
    pf.reset();
    EXPECT_TRUE(pf.trackingEnabled()); // tracking survives a reset...
    EXPECT_EQ(pf.trackedIssued(), 0u); // ...but the period restarts
    EXPECT_EQ(pf.useful(), 0u);
    EXPECT_EQ(pf.demandMisses(), 0u);
    pf.observeDemandHit(out.front()); // filter was cleared
    EXPECT_EQ(pf.useful(), 0u);
}

// ---------------------------------------------------------------- //
// Differential check against an array-of-structs reference

/**
 * The stream table written the obvious way: one struct per stream,
 * a first-match loop and an "invalid slot, else LRU" loop. The parallel
 * array table in StreamPrefetcher must behave identically.
 */
class ReferenceStreamPrefetcher
{
  public:
    explicit ReferenceStreamPrefetcher(const StreamPrefetcherConfig& cfg)
        : cfg_(cfg), streams_(cfg.streams)
    {
    }

    void
    reset()
    {
        for (auto& s : streams_)
            s = Stream{};
        useClock_ = 0;
        if (tracking_)
            enableTracking();
    }

    void
    enableTracking()
    {
        tracking_ = true;
        filter_.assign(kFilterSlots, kNoBlock);
        issuedAtEnable_ = issued_;
        useful_ = 0;
        late_ = 0;
    }

    void
    observeDemandHit(Addr addr)
    {
        if (!tracking_)
            return;
        const Addr blk = blockAddr(addr);
        Addr& slot = filter_[blk & (kFilterSlots - 1)];
        if (slot == blk) {
            ++useful_;
            slot = kNoBlock;
        }
    }

    void
    onL1Miss(Addr addr, std::vector<Addr>& out)
    {
        const Addr blk = blockAddr(addr);
        ++useClock_;
        if (tracking_) {
            Addr& slot = filter_[blk & (kFilterSlots - 1)];
            if (slot == blk) {
                ++late_;
                slot = kNoBlock;
            }
        }

        Stream* match = nullptr;
        for (auto& s : streams_) {
            if (!s.valid)
                continue;
            const Addr ref = s.lastBlock;
            const Addr delta = blk > ref ? blk - ref : ref - blk;
            if (delta != 0 && delta <= cfg_.window) {
                match = &s;
                break;
            }
        }

        if (!match) {
            Stream* lru = &streams_[0];
            for (auto& s : streams_) {
                if (!s.valid) {
                    lru = &s;
                    break;
                }
                if (s.lastUse < lru->lastUse)
                    lru = &s;
            }
            *lru = Stream{};
            lru->valid = true;
            lru->lastBlock = blk;
            lru->head = blk;
            lru->lastUse = useClock_;
            return;
        }

        match->lastUse = useClock_;
        if (match->direction == 0) {
            match->direction = blk > match->lastBlock ? +1 : -1;
            match->head = blk;
        }
        match->lastBlock = blk;

        const int dir = match->direction;
        const auto ahead_of = [dir](Addr a, Addr b) {
            return dir > 0 ? a > b : a < b;
        };
        if (!ahead_of(match->head, blk))
            match->head = blk;

        const Addr limit =
            dir > 0 ? blk + cfg_.distance : blk - cfg_.distance;
        unsigned emitted = 0;
        while (emitted < cfg_.degree && ahead_of(limit, match->head)) {
            match->head = dir > 0 ? match->head + 1 : match->head - 1;
            out.push_back(match->head << kBlockShift);
            ++issued_;
            ++emitted;
            if (tracking_)
                filter_[match->head & (kFilterSlots - 1)] = match->head;
        }
    }

    std::uint64_t issued() const { return issued_; }
    std::uint64_t trackedIssued() const { return issued_ - issuedAtEnable_; }
    std::uint64_t useful() const { return useful_; }
    std::uint64_t late() const { return late_; }

  private:
    struct Stream
    {
        bool valid = false;
        Addr lastBlock = 0;
        Addr head = 0;
        int direction = 0;
        std::uint64_t lastUse = 0;
    };

    static constexpr std::size_t kFilterSlots = 4096;
    static constexpr Addr kNoBlock = ~Addr{0};

    StreamPrefetcherConfig cfg_;
    std::vector<Stream> streams_;
    std::uint64_t useClock_ = 0;
    std::uint64_t issued_ = 0;
    bool tracking_ = false;
    std::vector<Addr> filter_;
    std::uint64_t issuedAtEnable_ = 0;
    std::uint64_t useful_ = 0;
    std::uint64_t late_ = 0;
};

/** Where a differential run places its streams and random misses. */
struct MissLayout
{
    const char* name;
    Addr walkBase; //!< streams start in [walkBase, walkBase + walkSpan)
    Addr walkSpan;
    Addr randBase; //!< random misses land in [randBase, randBase + randSpan)
    Addr randSpan;
};

/** Largest block address: byte addresses are 64 bits. */
constexpr Addr kTopBlock = ~Addr{0} >> kBlockShift;

/**
 * Drive StreamPrefetcher and the reference with the same 20,000 misses
 * (with a reset() midway) and require identical prefetches and counters.
 * Block addresses wrap modulo 2^58, as blockAddr() does.
 */
void
expectMatchesReference(const StreamPrefetcherConfig& cfg, bool tracking,
                       std::uint64_t seed, const MissLayout& layout)
{
    SCOPED_TRACE("streams " + std::to_string(cfg.streams) + " window " +
                 std::to_string(cfg.window) + " layout " + layout.name +
                 " tracking " + std::to_string(tracking) + " seed " +
                 std::to_string(seed));
    StreamPrefetcher dut(cfg);
    ReferenceStreamPrefetcher ref(cfg);
    if (tracking) {
        dut.enableTracking();
        ref.enableTracking();
    }
    Rng rng(seed);
    // Live strided streams, some ascending, some descending, a few more
    // than the table holds so LRU replacement runs; random misses land
    // anywhere (including near a stream, where they perturb its
    // direction).
    struct Walk
    {
        Addr at;
        std::int64_t stride;
    };
    std::vector<Walk> walks(cfg.streams + 4);
    for (auto& w : walks) {
        w.at = layout.walkBase + rng.below(layout.walkSpan);
        w.stride = static_cast<std::int64_t>(rng.range(1, 3)) *
                   (rng.below(2) == 0 ? 1 : -1);
    }
    std::vector<Addr> got, want;
    for (int step = 0; step < 20000; ++step) {
        Addr blk;
        const std::uint64_t pick = rng.below(10);
        if (pick < 7) {
            Walk& w = walks[rng.below(walks.size())];
            w.at = static_cast<Addr>(static_cast<std::int64_t>(w.at) +
                                     w.stride) &
                   kTopBlock;
            blk = w.at;
        } else if (pick < 9) {
            blk = layout.randBase + rng.below(layout.randSpan);
        } else {
            const Addr near = walks[rng.below(walks.size())].at;
            blk = (near + rng.below(40) - 20) & kTopBlock;
        }
        got.clear();
        want.clear();
        dut.onL1Miss(blk << kBlockShift, got);
        ref.onL1Miss(blk << kBlockShift, want);
        ASSERT_EQ(got, want) << "step " << step;
        // Demand hits on some of what was just prefetched.
        for (const Addr a : got) {
            if (rng.below(2) == 0) {
                dut.observeDemandHit(a);
                ref.observeDemandHit(a);
            }
        }
        if (step == 12345) {
            dut.reset();
            ref.reset();
        }
    }
    EXPECT_EQ(dut.issued(), ref.issued());
    EXPECT_EQ(dut.trackedIssued(), ref.trackedIssued());
    EXPECT_EQ(dut.useful(), ref.useful());
    EXPECT_EQ(dut.late(), ref.late());
    if (cfg.window == 0) {
        EXPECT_EQ(dut.issued(), 0u); // no miss is ever in the window
        return;
    }
    EXPECT_GT(dut.issued(), 0u);
    if (tracking) {
        EXPECT_GT(dut.useful(), 0u);
        EXPECT_GT(dut.late(), 0u);
    }
}

TEST(StreamPrefetcherTest, MatchesArrayOfStructsReference)
{
    // Mid-range addresses, far from either end of the block space.
    const MissLayout mid{"mid", Addr{1} << 20, Addr{1} << 24, 0,
                         Addr{1} << 26};
    // Streams a few thousand blocks from 0 or from the top block, so
    // descending ones cross 0 and ascending ones cross the top: the
    // region index's r-1 and r+1 neighbours wrap there.
    const MissLayout low{"low", 0, Addr{1} << 12, 0, Addr{1} << 14};
    const MissLayout high{"high", kTopBlock - (Addr{1} << 12) + 1,
                          Addr{1} << 12, kTopBlock - (Addr{1} << 14) + 1,
                          Addr{1} << 14};
    for (const unsigned window : {0u, 1u, 5u, 16u, 17u, 1000u}) {
        for (const MissLayout* layout : {&mid, &low, &high}) {
            // The default window in mid-range gets three seeds.
            const std::uint64_t seeds =
                window == 16 && layout == &mid ? 3 : 1;
            for (const unsigned streams : {1u, 3u, 16u, 64u}) {
                for (const bool tracking : {false, true}) {
                    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
                        StreamPrefetcherConfig cfg;
                        cfg.streams = streams;
                        cfg.window = window;
                        expectMatchesReference(cfg, tracking, seed,
                                               *layout);
                    }
                }
            }
        }
    }
}

TEST(StreamPrefetcherTest, StreamCountIsBoundedAtConstruction)
{
    for (const unsigned streams : {0u, 65u, 4294967295u}) {
        StreamPrefetcherConfig cfg;
        cfg.streams = streams;
        EXPECT_THROW(StreamPrefetcher{cfg}, FatalError) << streams;
    }
    StreamPrefetcherConfig cfg;
    cfg.streams = StreamPrefetcher::kMaxStreams;
    StreamPrefetcher pf(cfg);
    std::vector<Addr> out;
    // 64 interleaved streams are all tracked at once.
    for (int round = 0; round < 3; ++round)
        for (Addr s = 0; s < 64; ++s)
            pf.onL1Miss((s * 100000 + 7 + round) << kBlockShift, out);
    EXPECT_EQ(out.size(), 64u * 2u * 2u);
}

} // namespace
} // namespace mrp::prefetch

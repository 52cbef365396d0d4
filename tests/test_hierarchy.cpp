/**
 * @file
 * Integration tests for the three-level hierarchy: filtering, latency
 * assignment, writeback propagation, prefetch integration, and the
 * policy-invariance of the LLC reference stream (MIN's prerequisite).
 */

#include <gtest/gtest.h>

#include <memory>

#include "cache/hierarchy.hpp"
#include "policy/lru.hpp"
#include "policy/min.hpp"
#include "policy/srrip.hpp"

namespace mrp::cache {
namespace {

std::unique_ptr<Hierarchy>
make(bool prefetch = false, unsigned cores = 1)
{
    HierarchyConfig cfg;
    cfg.cores = cores;
    cfg.prefetchEnabled = prefetch;
    const CacheGeometry g(cfg.llcBytes, cfg.llcWays);
    return std::make_unique<Hierarchy>(
        cfg, std::make_unique<policy::LruPolicy>(g));
}

TEST(HierarchyTest, LatenciesPerLevel)
{
    auto h = make();
    const Addr a = 0x1000000;
    EXPECT_EQ(h->access(0, 0x400000, a, false, nullptr), 240u); // DRAM
    EXPECT_EQ(h->access(0, 0x400000, a, false, nullptr), 4u);   // L1
    // Evict from L1 by filling 8 conflicting lines: stride 4KB maps
    // to the same L1 set (64 sets) but different L2 sets (512 sets).
    for (int i = 1; i <= 8; ++i)
        h->access(0, 0x400000, a + i * 4096, false, nullptr);
    EXPECT_EQ(h->access(0, 0x400000, a, false, nullptr), 16u); // L2
}

TEST(HierarchyTest, LlcHitLatency)
{
    auto h = make();
    const Addr a = 0x2000000;
    h->access(0, 0x400000, a, false, nullptr);
    // Push out of L1 (8 ways x 32KB apart) and L2 (8 ways x 256KB
    // apart), leaving the block only in the LLC.
    for (int i = 1; i <= 12; ++i) {
        h->access(0, 0x400000, a + i * 32768ull, false, nullptr);
        h->access(0, 0x400000, a + i * 262144ull, false, nullptr);
    }
    EXPECT_EQ(h->access(0, 0x400000, a, false, nullptr), 40u);
}

TEST(HierarchyTest, DemandCountsReachLlcOnlyOnL2Miss)
{
    auto h = make();
    const Addr a = 0x3000000;
    h->access(0, 0x400000, a, false, nullptr);
    h->access(0, 0x400000, a, false, nullptr); // L1 hit
    EXPECT_EQ(h->llc().stats().demandAccesses, 1u);
    EXPECT_EQ(h->l1(0).stats().demandAccesses, 2u);
}

TEST(HierarchyTest, DirtyDataFlowsDownAsWritebacks)
{
    auto h = make();
    const Addr a = 0x4000000;
    h->access(0, 0x400000, a, true, nullptr); // store, dirty in L1
    // Evict through L1 and then L2 with conflicting fills.
    for (int i = 1; i <= 9; ++i)
        h->access(0, 0x400000, a + i * 32768ull, false, nullptr);
    EXPECT_GT(h->l2(0).stats().writebackAccesses, 0u);
    // Push the dirty block out of L2 as well.
    for (int i = 1; i <= 9; ++i)
        h->access(0, 0x400000, a + i * 262144ull, false, nullptr);
    EXPECT_GT(h->llc().stats().writebackAccesses, 0u);
}

TEST(HierarchyTest, StreamPrefetcherFillsAhead)
{
    auto hp = make(true);
    auto hn = make(false);
    // A clean ascending block stream.
    for (int i = 0; i < 64; ++i) {
        hp->access(0, 0x400000, 0x5000000ull + i * 64, false, nullptr);
        hn->access(0, 0x400000, 0x5000000ull + i * 64, false, nullptr);
    }
    // With prefetching, later demand accesses hit L1; total demand
    // misses at L1 must drop.
    EXPECT_LT(hp->l1(0).stats().demandMisses,
              hn->l1(0).stats().demandMisses);
    EXPECT_GT(hp->llc().stats().prefetchAccesses, 0u);
}

TEST(HierarchyTest, PerCoreCachesAreIsolated)
{
    auto h = make(false, 2);
    const Addr a = 0x6000000;
    h->access(0, 0x400000, a, false, nullptr);
    EXPECT_TRUE(h->l1(0).contains(a));
    EXPECT_FALSE(h->l1(1).contains(a));
    // Core 1 misses its private levels but hits the shared LLC.
    EXPECT_EQ(h->access(1, 0x400000, a, false, nullptr), 40u);
}

TEST(HierarchyTest, ResetStatsClearsCounters)
{
    auto h = make();
    h->access(0, 0x400000, 0x7000000, false, nullptr);
    h->resetStats();
    EXPECT_EQ(h->llc().stats().totalAccesses(), 0u);
    EXPECT_EQ(h->l1(0).stats().demandAccesses, 0u);
    EXPECT_EQ(h->dramReads(), 0u);
    // Contents were preserved.
    EXPECT_EQ(h->access(0, 0x400000, 0x7000000, false, nullptr), 4u);
}

TEST(HierarchyTest, DramCountersTrackMissesAndDirtyEvictions)
{
    auto h = make();
    h->access(0, 0x400000, 0x8000000, false, nullptr);
    EXPECT_EQ(h->dramReads(), 1u);
}

/**
 * The invariant that makes two-pass MIN sound: the LLC reference
 * stream does not depend on the LLC policy.
 */
TEST(HierarchyTest, LlcStreamIsPolicyInvariant)
{
    HierarchyConfig cfg;
    cfg.prefetchEnabled = true;
    const CacheGeometry g(cfg.llcBytes, cfg.llcWays);

    auto run = [&](std::unique_ptr<LlcPolicy> pol) {
        policy::LlcAccessRecorder rec;
        Hierarchy h(cfg, std::move(pol));
        h.llc().addObserver(rec);
        Rng rng(5);
        CoreContext ctx;
        for (int i = 0; i < 50000; ++i) {
            const Addr a = (rng.below(1 << 16)) * 64;
            h.access(0, 0x400000 + 4 * rng.below(8), a,
                     rng.chance(0.2), &ctx);
        }
        return rec.sequence();
    };

    const auto s1 = run(std::make_unique<policy::LruPolicy>(g));
    const auto s2 = run(std::make_unique<policy::SrripPolicy>(g));
    EXPECT_EQ(s1, s2);
}

} // namespace
} // namespace mrp::cache

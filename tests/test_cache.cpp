/**
 * @file
 * Tests for the cache substrate: geometry, the basic LRU cache, and
 * the policy-driven LLC (hit/miss paths, bypass, victims, observers).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/basic_cache.hpp"
#include "cache/policy_cache.hpp"
#include "policy/lru.hpp"
#include "util/logging.hpp"

namespace mrp::cache {
namespace {

Addr
addrOf(std::uint32_t set, std::uint64_t tag, std::uint32_t sets)
{
    return ((tag * sets) + set) * kBlockBytes;
}

TEST(GeometryTest, DerivesSetsAndTags)
{
    const CacheGeometry g(2 * 1024 * 1024, 16);
    EXPECT_EQ(g.sets(), 2048u);
    EXPECT_EQ(g.ways(), 16u);
    EXPECT_EQ(g.bytes(), 2u * 1024 * 1024);

    const Addr a = addrOf(5, 99, g.sets());
    EXPECT_EQ(g.setIndex(a), 5u);
    EXPECT_EQ(g.tag(a), 99u);
    EXPECT_EQ(g.blockAddrOf(5, 99), a);
}

TEST(GeometryTest, RejectsBadShapes)
{
    EXPECT_THROW(CacheGeometry(1000, 3), FatalError);
    EXPECT_THROW(CacheGeometry(64, 0), FatalError);
    // 3 sets is not a power of two: 3 * 64B * 1 way
    EXPECT_THROW(CacheGeometry(192, 1), FatalError);
}

TEST(BasicCacheTest, HitAfterFill)
{
    BasicCache c("t", 8 * 1024, 8);
    EXPECT_FALSE(c.access(0x1000, false));
    c.fill(0x1000, false, false);
    EXPECT_TRUE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x103F, false)); // same block
    EXPECT_FALSE(c.access(0x1040, false)); // next block
    EXPECT_EQ(c.stats().demandHits, 2u);
    EXPECT_EQ(c.stats().demandMisses, 2u);
}

TEST(BasicCacheTest, EvictsTrueLru)
{
    // 1-set cache of 4 ways: 256B, 4-way.
    BasicCache c("t", 256, 4);
    const std::uint32_t sets = c.geometry().sets();
    ASSERT_EQ(sets, 1u);
    for (std::uint64_t t = 0; t < 4; ++t)
        c.fill(addrOf(0, t, 1), false, false);
    // Touch 0 to make 1 the LRU.
    EXPECT_TRUE(c.access(addrOf(0, 0, 1), false));
    const VictimBlock v = c.fill(addrOf(0, 9, 1), false, false);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.blockAddress, addrOf(0, 1, 1));
    EXPECT_FALSE(c.contains(addrOf(0, 1, 1)));
    EXPECT_TRUE(c.contains(addrOf(0, 0, 1)));
}

TEST(BasicCacheTest, DirtyTracking)
{
    BasicCache c("t", 256, 4);
    c.fill(0x0, false, false);
    EXPECT_TRUE(c.access(0x0, true)); // write marks dirty
    for (std::uint64_t t = 1; t <= 4; ++t)
        c.fill(addrOf(0, t, 1), false, false);
    // The original block was evicted dirty.
    EXPECT_EQ(c.stats().dirtyEvictions, 1u);
}

TEST(BasicCacheTest, MarkDirtyAndInvalidate)
{
    BasicCache c("t", 256, 4);
    EXPECT_FALSE(c.markDirty(0x0));
    c.fill(0x0, false, false);
    EXPECT_TRUE(c.markDirty(0x0));
    const VictimBlock v = c.invalidate(0x0);
    EXPECT_TRUE(v.valid);
    EXPECT_TRUE(v.dirty);
    EXPECT_FALSE(c.contains(0x0));
    EXPECT_FALSE(c.invalidate(0x123456).valid);
}

TEST(BasicCacheTest, TouchRefreshesWithoutStats)
{
    BasicCache c("t", 256, 4);
    for (std::uint64_t t = 0; t < 4; ++t)
        c.fill(addrOf(0, t, 1), false, false);
    const auto demand_before = c.stats().demandAccesses;
    EXPECT_TRUE(c.touch(addrOf(0, 0, 1)));
    EXPECT_EQ(c.stats().demandAccesses, demand_before);
    const VictimBlock v = c.fill(addrOf(0, 7, 1), false, false);
    EXPECT_EQ(v.blockAddress, addrOf(0, 1, 1)); // 0 was refreshed
}

// ---------------------------------------------------------------------
// PolicyCache

/** Counts every LLC event and logs it in arrival order. */
class CountingObserver : public LlcObserver
{
  public:
    int accesses = 0, hits = 0, fills = 0, evicts = 0, bypasses = 0;
    std::vector<std::string> events;

    void
    onAccess(const AccessInfo& info, bool hit, std::uint32_t set,
             int way) override
    {
        ++accesses;
        hits += hit ? 1 : 0;
        log("access", info.addr, set, way);
    }
    void
    onFill(const AccessInfo& info, std::uint32_t set,
           std::uint32_t way) override
    {
        ++fills;
        log("fill", info.addr, set, static_cast<int>(way));
    }
    void
    onEvict(std::uint32_t set, std::uint32_t way, Addr block) override
    {
        ++evicts;
        log("evict", block, set, static_cast<int>(way));
    }
    void
    onBypass(const AccessInfo& info, std::uint32_t set) override
    {
        ++bypasses;
        log("bypass", info.addr, set, -1);
    }

  private:
    void
    log(const char* what, Addr addr, std::uint32_t set, int way)
    {
        events.push_back(std::string(what) + " " +
                         std::to_string(addr) + " " +
                         std::to_string(set) + " " +
                         std::to_string(way));
    }
};

/** Policy that bypasses everything after the set fills up. */
class BypassAllPolicy : public LlcPolicy
{
  public:
    std::string name() const override { return "BypassAll"; }
    void onHit(const AccessInfo&, std::uint32_t, std::uint32_t) override
    {
    }
    bool shouldBypass(const AccessInfo&, std::uint32_t) override
    {
        return true;
    }
    std::uint32_t victimWay(const AccessInfo&, std::uint32_t) override
    {
        return 0;
    }
    void onFill(const AccessInfo&, std::uint32_t, std::uint32_t) override
    {
    }
};

AccessInfo
demand(Addr a, AccessType t = AccessType::Load)
{
    AccessInfo info;
    info.pc = 0x400000;
    info.addr = a;
    info.type = t;
    return info;
}

TEST(PolicyCacheTest, FillsInvalidWaysBeforeAskingPolicy)
{
    const CacheGeometry g(256, 4);
    PolicyCache c(256, 4, std::make_unique<policy::LruPolicy>(g), 1);
    for (std::uint64_t t = 0; t < 4; ++t) {
        const auto r = c.access(demand(addrOf(0, t, 1)));
        EXPECT_FALSE(r.hit);
        EXPECT_FALSE(r.victim.valid); // no eviction while ways free
    }
    const auto r = c.access(demand(addrOf(0, 4, 1)));
    EXPECT_TRUE(r.victim.valid);
    EXPECT_EQ(r.victim.blockAddress, addrOf(0, 0, 1));
}

TEST(PolicyCacheTest, LruPromotionOnHit)
{
    const CacheGeometry g(256, 4);
    PolicyCache c(256, 4, std::make_unique<policy::LruPolicy>(g), 1);
    for (std::uint64_t t = 0; t < 4; ++t)
        c.access(demand(addrOf(0, t, 1)));
    EXPECT_TRUE(c.access(demand(addrOf(0, 0, 1))).hit);
    const auto r = c.access(demand(addrOf(0, 8, 1)));
    EXPECT_EQ(r.victim.blockAddress, addrOf(0, 1, 1));
}

TEST(PolicyCacheTest, BypassOnlyConsideredForFullSets)
{
    const CacheGeometry g(256, 4);
    PolicyCache c(256, 4, std::make_unique<BypassAllPolicy>(), 1);
    // While ways are free, fills happen even though the policy wants
    // to bypass everything (bypassing into free space wastes capacity).
    for (std::uint64_t t = 0; t < 4; ++t) {
        c.access(demand(addrOf(0, t, 1)));
        EXPECT_TRUE(c.contains(addrOf(0, t, 1)));
    }
    // Once the set is full, the policy's bypass takes effect.
    const auto r = c.access(demand(addrOf(0, 9, 1)));
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.bypassed);
    EXPECT_FALSE(c.contains(addrOf(0, 9, 1)));
    EXPECT_EQ(c.stats().bypasses, 1u);
    EXPECT_EQ(c.stats().evictions, 0u);
}

TEST(PolicyCacheTest, WritebackInstallsDirty)
{
    const CacheGeometry g(256, 4);
    PolicyCache c(256, 4, std::make_unique<policy::LruPolicy>(g), 1);
    c.access(demand(0x0, AccessType::Writeback));
    EXPECT_TRUE(c.contains(0x0));
    // Evict it: the victim must be dirty.
    for (std::uint64_t t = 1; t <= 4; ++t)
        c.access(demand(addrOf(0, t, 1)));
    EXPECT_EQ(c.stats().dirtyEvictions, 1u);
}

TEST(PolicyCacheTest, WritebackHitRedirties)
{
    const CacheGeometry g(256, 4);
    PolicyCache c(256, 4, std::make_unique<policy::LruPolicy>(g), 1);
    c.access(demand(0x0)); // clean fill
    c.access(demand(0x0, AccessType::Writeback)); // hit, mark dirty
    for (std::uint64_t t = 1; t <= 4; ++t)
        c.access(demand(addrOf(0, t, 1)));
    EXPECT_EQ(c.stats().dirtyEvictions, 1u);
}

TEST(PolicyCacheTest, PerCoreDemandMissAttribution)
{
    const CacheGeometry g(256, 4);
    PolicyCache c(256, 4, std::make_unique<policy::LruPolicy>(g), 2);
    AccessInfo a = demand(0x1000);
    a.core = 1;
    c.access(a);
    c.access(demand(0x2000)); // core 0
    c.access(demand(0x2000)); // hit
    EXPECT_EQ(c.demandMissesOf(0), 1u);
    EXPECT_EQ(c.demandMissesOf(1), 1u);
    EXPECT_THROW(c.demandMissesOf(7), FatalError);
}

TEST(PolicyCacheTest, ObserverSeesAllEvents)
{
    const CacheGeometry g(256, 4);
    PolicyCache c(256, 4, std::make_unique<policy::LruPolicy>(g), 1);
    CountingObserver first, second;
    c.addObserver(first);
    c.addObserver(second);
    for (std::uint64_t t = 0; t < 5; ++t)
        c.access(demand(addrOf(0, t, 1)));
    c.access(demand(addrOf(0, 4, 1))); // hit
    for (const CountingObserver* obs : {&first, &second}) {
        EXPECT_EQ(obs->accesses, 6);
        EXPECT_EQ(obs->hits, 1);
        EXPECT_EQ(obs->fills, 5);
        EXPECT_EQ(obs->evicts, 1);
    }
    ASSERT_EQ(first.events.size(), 12u);
    EXPECT_EQ(first.events, second.events);
    EXPECT_EQ(first.events[8], "access " +
                                   std::to_string(addrOf(0, 4, 1)) +
                                   " 0 -1");
    EXPECT_EQ(first.events[9], "evict " +
                                   std::to_string(addrOf(0, 0, 1)) +
                                   " 0 0");
}

TEST(PolicyCacheTest, StatsByType)
{
    const CacheGeometry g(256, 4);
    PolicyCache c(256, 4, std::make_unique<policy::LruPolicy>(g), 1);
    c.access(demand(0x1000, AccessType::Load));
    c.access(demand(0x1000, AccessType::Store));
    c.access(demand(0x2000, AccessType::Prefetch));
    c.access(demand(0x3000, AccessType::Writeback));
    const auto& s = c.stats();
    EXPECT_EQ(s.demandAccesses, 2u);
    EXPECT_EQ(s.demandHits, 1u);
    EXPECT_EQ(s.prefetchMisses, 1u);
    EXPECT_EQ(s.writebackMisses, 1u);
    EXPECT_EQ(s.totalAccesses(), 4u);
    c.resetStats();
    EXPECT_EQ(c.stats().totalAccesses(), 0u);
    EXPECT_EQ(c.demandMissesOf(0), 0u);
}

} // namespace
} // namespace mrp::cache

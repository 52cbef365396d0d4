/**
 * @file
 * Tests for the cache substrate: geometry, the basic LRU cache, and
 * the policy-driven LLC (hit/miss paths, bypass, victims, observers).
 */

#include <gtest/gtest.h>

#include <array>
#include <list>
#include <string>
#include <vector>

#include "cache/basic_cache.hpp"
#include "cache/policy_cache.hpp"
#include "policy/lru.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

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
    c.fill(0x1000, false);
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
        c.fill(addrOf(0, t, 1), false);
    // Touch 0 to make 1 the LRU.
    EXPECT_TRUE(c.access(addrOf(0, 0, 1), false));
    const VictimBlock v = c.fill(addrOf(0, 9, 1), false);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.blockAddress, addrOf(0, 1, 1));
    EXPECT_FALSE(c.contains(addrOf(0, 1, 1)));
    EXPECT_TRUE(c.contains(addrOf(0, 0, 1)));
}

TEST(BasicCacheTest, DirtyTracking)
{
    BasicCache c("t", 256, 4);
    c.fill(0x0, false);
    EXPECT_TRUE(c.access(0x0, true)); // write marks dirty
    for (std::uint64_t t = 1; t <= 4; ++t)
        c.fill(addrOf(0, t, 1), false);
    // The original block was evicted dirty.
    EXPECT_EQ(c.stats().dirtyEvictions, 1u);
}

TEST(BasicCacheTest, MarkDirtyAndInvalidate)
{
    BasicCache c("t", 256, 4);
    EXPECT_FALSE(c.markDirty(0x0));
    c.fill(0x0, false);
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
        c.fill(addrOf(0, t, 1), false);
    const auto demand_before = c.stats().demandAccesses;
    EXPECT_TRUE(c.touch(addrOf(0, 0, 1)));
    EXPECT_EQ(c.stats().demandAccesses, demand_before);
    const VictimBlock v = c.fill(addrOf(0, 7, 1), false);
    EXPECT_EQ(v.blockAddress, addrOf(0, 1, 1)); // 0 was refreshed
}

/**
 * Naive true-LRU write-back cache: one std::list per set, most recent
 * first. Way placement is not modelled, so it checks BasicCache's
 * replacement order, victims and counters independently of its arrays.
 */
class ReferenceLruCache
{
  public:
    ReferenceLruCache(Addr bytes, std::uint32_t ways)
        : geom_(bytes, ways), sets_(geom_.sets())
    {
    }

    bool
    access(Addr addr, bool is_write)
    {
        ++stats.demandAccesses;
        if (Entry* e = promote(addr)) {
            e->dirty = e->dirty || is_write;
            ++stats.demandHits;
            return true;
        }
        ++stats.demandMisses;
        return false;
    }

    bool contains(Addr addr) { return lookup(addr) != set(addr).end(); }

    bool touch(Addr addr) { return promote(addr) != nullptr; }

    VictimBlock
    fill(Addr addr, bool dirty)
    {
        auto& s = set(addr);
        VictimBlock v;
        if (s.size() == geom_.ways()) {
            v.valid = true;
            v.blockAddress = s.back().block << kBlockShift;
            v.dirty = s.back().dirty;
            ++stats.evictions;
            if (v.dirty)
                ++stats.dirtyEvictions;
            s.pop_back();
        }
        s.push_front({blockAddr(addr), dirty});
        return v;
    }

    bool
    markDirty(Addr addr)
    {
        const auto it = lookup(addr);
        if (it == set(addr).end())
            return false;
        it->dirty = true;
        return true;
    }

    VictimBlock
    invalidate(Addr addr)
    {
        VictimBlock v;
        const auto it = lookup(addr);
        if (it != set(addr).end()) {
            v.valid = true;
            v.blockAddress = it->block << kBlockShift;
            v.dirty = it->dirty;
            set(addr).erase(it);
        }
        return v;
    }

    stats::LevelStats stats;

  private:
    struct Entry
    {
        Addr block;
        bool dirty;
    };

    std::list<Entry>& set(Addr addr) { return sets_[geom_.setIndex(addr)]; }

    std::list<Entry>::iterator
    lookup(Addr addr)
    {
        auto& s = set(addr);
        for (auto it = s.begin(); it != s.end(); ++it)
            if (it->block == blockAddr(addr))
                return it;
        return s.end();
    }

    Entry*
    promote(Addr addr)
    {
        auto& s = set(addr);
        const auto it = lookup(addr);
        if (it == s.end())
            return nullptr;
        s.splice(s.begin(), s, it);
        return &s.front();
    }

    CacheGeometry geom_;
    std::vector<std::list<Entry>> sets_;
};

void
expectSameStats(const stats::LevelStats& a, const stats::LevelStats& b)
{
    EXPECT_EQ(a.demandAccesses, b.demandAccesses);
    EXPECT_EQ(a.demandHits, b.demandHits);
    EXPECT_EQ(a.demandMisses, b.demandMisses);
    EXPECT_EQ(a.prefetchAccesses, b.prefetchAccesses);
    EXPECT_EQ(a.prefetchHits, b.prefetchHits);
    EXPECT_EQ(a.prefetchMisses, b.prefetchMisses);
    EXPECT_EQ(a.writebackAccesses, b.writebackAccesses);
    EXPECT_EQ(a.writebackHits, b.writebackHits);
    EXPECT_EQ(a.writebackMisses, b.writebackMisses);
    EXPECT_EQ(a.bypasses, b.bypasses);
    EXPECT_EQ(a.fills, b.fills);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.dirtyEvictions, b.dirtyEvictions);
}

TEST(BasicCacheTest, MatchesNaiveLruReferenceOnRandomSequences)
{
    struct Shape
    {
        Addr bytes;
        std::uint32_t ways;
    };
    for (const Shape shape : {Shape{64, 1}, Shape{1024, 4},
                              Shape{4096, 8}, Shape{8192, 16}}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            SCOPED_TRACE("bytes " + std::to_string(shape.bytes) +
                         " ways " + std::to_string(shape.ways) +
                         " seed " + std::to_string(seed));
            BasicCache dut("t", shape.bytes, shape.ways);
            ReferenceLruCache ref(shape.bytes, shape.ways);
            Rng rng(seed);
            // A block pool about three times the capacity keeps hits,
            // misses and evictions all common; the top blocks check that
            // tags near 2^58 never collide with the invalid marker.
            const Addr pool = 3 * shape.bytes / kBlockBytes;
            for (int step = 0; step < 20000; ++step) {
                const Addr block = rng.below(8) == 0
                                       ? blockAddr(~Addr{0}) - rng.below(4)
                                       : rng.below(pool);
                const Addr addr =
                    (block << kBlockShift) | rng.below(kBlockBytes);
                switch (rng.below(6)) {
                  case 0:
                  case 1: {
                      const bool write = rng.below(2) == 0;
                      ASSERT_EQ(dut.access(addr, write),
                                ref.access(addr, write));
                      break;
                  }
                  case 2:
                      ASSERT_EQ(dut.touch(addr), ref.touch(addr));
                      break;
                  case 3: {
                      ASSERT_EQ(dut.contains(addr), ref.contains(addr));
                      if (ref.contains(addr))
                          break;
                      const bool dirty = rng.below(2) == 0;
                      const VictimBlock a = dut.fill(addr, dirty);
                      const VictimBlock b = ref.fill(addr, dirty);
                      ASSERT_EQ(a.valid, b.valid) << "step " << step;
                      ASSERT_EQ(a.blockAddress, b.blockAddress);
                      ASSERT_EQ(a.dirty, b.dirty);
                      break;
                  }
                  case 4:
                      ASSERT_EQ(dut.markDirty(addr), ref.markDirty(addr));
                      break;
                  case 5: {
                      const VictimBlock a = dut.invalidate(addr);
                      const VictimBlock b = ref.invalidate(addr);
                      ASSERT_EQ(a.valid, b.valid) << "step " << step;
                      ASSERT_EQ(a.blockAddress, b.blockAddress);
                      ASSERT_EQ(a.dirty, b.dirty);
                      break;
                  }
                }
            }
            expectSameStats(dut.stats(), ref.stats);
        }
    }
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

TEST(PolicyCacheTest, WaysAreBoundedByTheWayMask)
{
    // 128 ways in one set is a valid geometry, but a WayMask cannot
    // name way 64 and up, so the cache refuses it at construction.
    const CacheGeometry wide(128 * 64, 128);
    EXPECT_THROW(PolicyCache(128 * 64, 128,
                             std::make_unique<policy::LruPolicy>(wide), 1),
                 FatalError);

    // kMaxWays is the bound: every way fills before the first eviction.
    static_assert(PolicyCache::kMaxWays == 64);
    const CacheGeometry g(64 * 64, 64);
    PolicyCache c(64 * 64, 64, std::make_unique<policy::LruPolicy>(g), 1);
    for (std::uint64_t t = 0; t < 64; ++t)
        EXPECT_FALSE(c.access(demand(addrOf(0, t, 1))).victim.valid);
    const auto r = c.access(demand(addrOf(0, 64, 1)));
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

/** LRU whose tenant is the requesting core, confined to half the set. */
class TwoTenantLruPolicy : public policy::LruPolicy
{
  public:
    using policy::LruPolicy::LruPolicy;

    std::uint32_t
    tenantOf(const AccessInfo& info) const override
    {
        return info.core;
    }
    WayMask
    fillWays(const AccessInfo& info, std::uint32_t) override
    {
        return info.core == 0 ? 0b0011 : 0b1100;
    }
};

/** Counts hits per core. */
class HitsByCore : public LlcObserver
{
  public:
    std::array<int, 2> hits{};

    void
    onAccess(const AccessInfo& info, bool hit, std::uint32_t,
             int) override
    {
        hits[info.core] += hit ? 1 : 0;
    }
};

TEST(PolicyCacheTest, TenantsHoldPrivateCopiesOfTheSameTag)
{
    const CacheGeometry g(256, 4); // one set
    PolicyCache c(256, 4, std::make_unique<TwoTenantLruPolicy>(g), 2);
    HitsByCore obs;
    c.addObserver(obs);
    const auto by = [](CoreId core, Addr a) {
        AccessInfo info = demand(a);
        info.core = core;
        return info;
    };
    const Addr a = addrOf(0, 1, 1), b = addrOf(0, 2, 1),
               d = addrOf(0, 3, 1);

    EXPECT_FALSE(c.contains(a));
    EXPECT_FALSE(c.access(by(0, a)).hit);
    EXPECT_TRUE(c.contains(a));
    // Tenant 1 does not see tenant 0's copy: it misses and fills its own.
    EXPECT_FALSE(c.access(by(1, a)).hit);
    EXPECT_EQ(c.ownerBlockCount(0), 1u);
    EXPECT_EQ(c.ownerBlockCount(1), 1u);
    EXPECT_TRUE(c.access(by(0, a)).hit);
    EXPECT_TRUE(c.access(by(1, a)).hit);
    EXPECT_TRUE(c.access(by(1, a)).hit);
    EXPECT_EQ(obs.hits[0], 1);
    EXPECT_EQ(obs.hits[1], 2);

    // Tenant 0 pushes its copy of a out of its two ways.
    EXPECT_FALSE(c.access(by(0, b)).hit);
    const LlcResult r = c.access(by(0, d));
    ASSERT_TRUE(r.victim.valid);
    EXPECT_EQ(r.victim.blockAddress, a);
    EXPECT_EQ(c.ownerBlockCount(0), 2u);
    EXPECT_EQ(c.ownerBlockCount(1), 1u);
    // Presence is owner-agnostic: tenant 1's copy still counts.
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.access(by(0, a)).hit);
    EXPECT_TRUE(c.access(by(1, a)).hit);
    EXPECT_EQ(obs.hits[0], 1);
    EXPECT_EQ(obs.hits[1], 3);
    EXPECT_EQ(c.demandMissesOf(0), 4u);
    EXPECT_EQ(c.demandMissesOf(1), 1u);
}

} // namespace
} // namespace mrp::cache

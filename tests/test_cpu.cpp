/**
 * @file
 * Tests for the out-of-order core timing model: width limits, window
 * stalls, miss overlap, dependent-load serialization, and the MSHR
 * bound on memory-level parallelism; run() against a step() loop.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "cpu/core_model.hpp"
#include "policy/lru.hpp"
#include "trace/builder.hpp"
#include "trace/source.hpp"
#include "trace/workloads.hpp"
#include "util/rng.hpp"

namespace mrp::cpu {
namespace {

cache::HierarchyConfig
smallConfig()
{
    cache::HierarchyConfig cfg;
    cfg.prefetchEnabled = false;
    return cfg;
}

std::unique_ptr<cache::Hierarchy>
makeHier(const cache::HierarchyConfig& cfg)
{
    const cache::CacheGeometry g(cfg.llcBytes, cfg.llcWays);
    return std::make_unique<cache::Hierarchy>(
        cfg, std::make_unique<policy::LruPolicy>(g));
}

trace::Trace
padsOnly(InstCount n)
{
    trace::TraceBuilder b("pads", 0x400000, 1);
    while (b.instructions() < n)
        b.pad(1000);
    return std::move(b).build();
}

TEST(CoreModelTest, NonMemIpcApproachesWidth)
{
    auto hier = makeHier(smallConfig());
    const auto t = padsOnly(100000);
    trace::MaterializedTraceSource src(t);
    CoreModel cpu(0, *hier, src, false);
    while (!cpu.finished())
        cpu.step();
    const double ipc = static_cast<double>(cpu.retired()) /
                       static_cast<double>(cpu.cycle());
    EXPECT_GT(ipc, 3.5);
    EXPECT_LE(ipc, 4.0 + 1e-9);
}

TEST(CoreModelTest, L1HitsDoNotThrottleMuch)
{
    auto hier = makeHier(smallConfig());
    trace::TraceBuilder b("l1", 0x400000, 1);
    for (int i = 0; i < 20000; ++i) {
        b.load(1, 0x1000 + 64 * (i % 8)); // stays in L1
        b.pad(3);
    }
    const auto t = std::move(b).build();
    trace::MaterializedTraceSource src(t);
    CoreModel cpu(0, *hier, src, false);
    while (!cpu.finished())
        cpu.step();
    const double ipc = static_cast<double>(cpu.retired()) /
                       static_cast<double>(cpu.cycle());
    // L1 latency is 4 cycles and overlaps; IPC should stay near width.
    EXPECT_GT(ipc, 2.0);
}

/** Independent misses should overlap; dependent ones serialize. */
TEST(CoreModelTest, DependentLoadsSerialize)
{
    const Addr stride = 1 << 20; // distinct sets, always LLC+DRAM miss
    const int n = 2000;

    auto run = [&](bool dep) {
        auto hier = makeHier(smallConfig());
        trace::TraceBuilder b("x", 0x400000, 1);
        for (int i = 0; i < n; ++i)
            b.load(1, 0x10000000ull + stride * i, dep);
        const auto t = std::move(b).build();
        trace::MaterializedTraceSource src(t);
        CoreModel cpu(0, *hier, src, false);
        while (!cpu.finished())
            cpu.step();
        return cpu.cycle();
    };

    const Cycle independent = run(false);
    const Cycle dependent = run(true);
    // Fully serialized: ~240 cycles per load. Independent: bounded by
    // MSHRs (16 outstanding) => near 240/16 per load.
    EXPECT_GT(dependent, independent * 5);
    EXPECT_GE(dependent, static_cast<Cycle>(n) * 240);
}

TEST(CoreModelTest, MshrsBoundMissOverlap)
{
    const Addr stride = 1 << 20;
    const int n = 2000;
    auto run = [&](unsigned mshrs) {
        auto hier = makeHier(smallConfig());
        trace::TraceBuilder b("x", 0x400000, 1);
        for (int i = 0; i < n; ++i)
            b.load(1, 0x10000000ull + stride * i);
        const auto t = std::move(b).build();
        CoreModelConfig ccfg;
        ccfg.mshrs = mshrs;
        trace::MaterializedTraceSource src(t);
        CoreModel cpu(0, *hier, src, false, ccfg);
        while (!cpu.finished())
            cpu.step();
        return cpu.cycle();
    };
    const Cycle wide = run(64);
    const Cycle narrow = run(2);
    EXPECT_GT(narrow, wide * 3);
}

TEST(CoreModelTest, WindowLimitsOverlapWhenSmall)
{
    const Addr stride = 1 << 20;
    auto run = [&](unsigned window) {
        auto hier = makeHier(smallConfig());
        trace::TraceBuilder b("x", 0x400000, 1);
        for (int i = 0; i < 1000; ++i) {
            b.load(1, 0x10000000ull + stride * i);
            b.pad(30);
        }
        const auto t = std::move(b).build();
        CoreModelConfig ccfg;
        ccfg.windowSize = window;
        trace::MaterializedTraceSource src(t);
        CoreModel cpu(0, *hier, src, false, ccfg);
        while (!cpu.finished())
            cpu.step();
        return cpu.cycle();
    };
    // A 16-entry window fits no two misses (31 instructions apart);
    // a 128-entry window overlaps ~4.
    EXPECT_GT(run(16), 2 * run(128));
}

TEST(CoreModelTest, LoopRestartsTrace)
{
    auto hier = makeHier(smallConfig());
    trace::TraceBuilder b("x", 0x400000, 1);
    b.load(1, 0x1000);
    b.pad(9);
    const auto t = std::move(b).build();
    trace::MaterializedTraceSource src(t);
    CoreModel cpu(0, *hier, src, true);
    for (int i = 0; i < 100; ++i)
        cpu.step();
    EXPECT_FALSE(cpu.finished());
    EXPECT_GT(cpu.retired(), t.instructions());
}

TEST(CoreModelTest, FinishedAfterSinglePass)
{
    auto hier = makeHier(smallConfig());
    const auto t = padsOnly(5000);
    trace::MaterializedTraceSource src(t);
    CoreModel cpu(0, *hier, src, false);
    while (!cpu.finished())
        cpu.step();
    EXPECT_EQ(cpu.retired(), t.instructions());
    EXPECT_THROW(cpu.step(), PanicError);
}

TEST(CoreModelTest, PcHistoryIsUpdatedOnMemOps)
{
    auto hier = makeHier(smallConfig());
    trace::TraceBuilder b("x", 0x400000, 1);
    b.load(1, 0x1000);
    b.load(2, 0x2000);
    const auto t = std::move(b).build();
    trace::MaterializedTraceSource src(t);
    CoreModel cpu(0, *hier, src, false);
    cpu.step();
    EXPECT_EQ(cpu.context().pcHistory.recent(0), t.records()[0].pc());
    cpu.step();
    EXPECT_EQ(cpu.context().pcHistory.recent(0), t.records()[1].pc());
    EXPECT_EQ(cpu.context().pcHistory.recent(1), t.records()[0].pc());
}

TEST(CoreModelTest, StoresDoNotBlockRetirement)
{
    const Addr stride = 1 << 20;
    auto run = [&](bool store) {
        auto hier = makeHier(smallConfig());
        trace::TraceBuilder b("x", 0x400000, 1);
        for (int i = 0; i < 1000; ++i) {
            if (store)
                b.store(1, 0x10000000ull + stride * i);
            else
                b.load(1, 0x10000000ull + stride * i);
        }
        const auto t = std::move(b).build();
        trace::MaterializedTraceSource src(t);
        CoreModel cpu(0, *hier, src, false);
        while (!cpu.finished())
            cpu.step();
        return cpu.cycle();
    };
    EXPECT_LT(run(true) * 5, run(false));
}

TEST(CoreModelTest, LoadLatencyAccounting)
{
    auto hier = makeHier(smallConfig());
    trace::TraceBuilder b("x", 0x400000, 1);
    b.load(1, 0x1000);
    b.load(1, 0x1000);
    const auto t = std::move(b).build();
    trace::MaterializedTraceSource src(t);
    CoreModel cpu(0, *hier, src, false);
    while (!cpu.finished())
        cpu.step();
    EXPECT_EQ(cpu.loadCount(), 2u);
    // First access misses everywhere (240), second hits L1 (4).
    EXPECT_EQ(cpu.loadLatencyTotal(), 244u);
}

std::array<std::uint64_t, 13>
fieldsOf(const stats::LevelStats& s)
{
    return {s.demandAccesses,    s.demandHits,      s.demandMisses,
            s.prefetchAccesses,  s.prefetchHits,    s.prefetchMisses,
            s.writebackAccesses, s.writebackHits,   s.writebackMisses,
            s.bypasses,          s.fills,           s.evictions,
            s.dirtyEvictions};
}

TEST(CoreModelTest, RunMatchesAStepLoop)
{
    // Differential check of run(): one core driven by run(limit), a
    // twin by `while (!finished() && retired() < limit) step();`, at
    // seeded limits (some already reached, some past the end of an
    // unlooped trace). Small caches with the prefetcher on keep every
    // level missing and writing back. Kills, for example, a run()
    // that steps one record past its limit or ignores exhaustion.
    cache::HierarchyConfig hcfg;
    hcfg.l1Bytes = 4 * 1024;
    hcfg.l2Bytes = 16 * 1024;
    hcfg.llcBytes = 64 * 1024;
    const auto t = trace::makeSuiteTrace(5, 60000);
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                    std::size_t{2048}}) {
        for (const bool loop : {false, true}) {
            SCOPED_TRACE("chunk " + std::to_string(chunk) + " loop " +
                         std::to_string(loop));
            auto hier_a = makeHier(hcfg);
            auto hier_b = makeHier(hcfg);
            trace::MaterializedTraceSource src_a(t, chunk);
            trace::MaterializedTraceSource src_b(t, chunk);
            CoreModel a(0, *hier_a, src_a, loop);
            CoreModel b(0, *hier_b, src_b, loop);
            Rng rng(chunk);
            InstCount limit = 0;
            while (limit < 3 * t.instructions()) {
                // Mostly short hops, so that many limits fall inside
                // one record's instructions or on a chunk boundary.
                limit += rng.below(4) == 0 ? rng.below(20000)
                                           : rng.below(40);
                a.run(limit);
                while (!b.finished() && b.retired() < limit)
                    b.step();
                ASSERT_EQ(a.retired(), b.retired()) << "limit " << limit;
                ASSERT_EQ(a.cycle(), b.cycle()) << "limit " << limit;
                ASSERT_EQ(a.finished(), b.finished());
                ASSERT_EQ(a.nextEnterCycle(), b.nextEnterCycle());
                ASSERT_EQ(a.loadLatencyTotal(), b.loadLatencyTotal());
                ASSERT_EQ(a.loadCount(), b.loadCount());
                if (!a.finished() && rng.below(8) == 0) {
                    a.step(); // step() and run() share one body
                    b.step();
                    ASSERT_EQ(a.retired(), b.retired());
                }
            }
            EXPECT_EQ(a.finished(), !loop);
            ASSERT_EQ(fieldsOf(hier_a->l1(0).stats()),
                      fieldsOf(hier_b->l1(0).stats()));
            ASSERT_EQ(fieldsOf(hier_a->l2(0).stats()),
                      fieldsOf(hier_b->l2(0).stats()));
            ASSERT_EQ(fieldsOf(hier_a->llc().stats()),
                      fieldsOf(hier_b->llc().stats()));
            EXPECT_EQ(hier_a->dramReads(), hier_b->dramReads());
            EXPECT_EQ(hier_a->dramWrites(), hier_b->dramWrites());
            EXPECT_GT(hier_a->llc().stats().evictions, 0u);
            EXPECT_GT(hier_a->l2(0).stats().writebackAccesses, 0u);
        }
    }
}

} // namespace
} // namespace mrp::cpu

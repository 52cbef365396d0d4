/**
 * @file
 * Tests for the simulation drivers: single-core, the MIN two-pass
 * runner, the multi-core FIESTA-style driver, weighted speedup, and
 * the policy factory.
 */

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "sim/multi_core.hpp"
#include "sim/single_core.hpp"
#include "trace/source.hpp"
#include "trace/workloads.hpp"

namespace mrp::sim {
namespace {

TEST(PolicyFactoryTest, KnowsAllStandardNames)
{
    const cache::CacheGeometry g(2 * 1024 * 1024, 16);
    for (const char* name :
         {"LRU", "Random", "SRRIP", "DRRIP", "MDPP", "SDBP",
          "Perceptron", "Hawkeye", "MPPPB", "MPPPB-MC", "MPPPB-1A",
          "MPPPB-1B", "MPPPB-T2"}) {
        auto pol = PolicyRegistry::make(name)(g, 1);
        ASSERT_NE(pol, nullptr) << name;
    }
    EXPECT_THROW(PolicyRegistry::make("NoSuchPolicy"), FatalError);
}

TEST(PolicyFactoryTest, PaperPolicyListShape)
{
    const auto names = paperPolicyNames();
    EXPECT_EQ(names.size(), 4u);
    EXPECT_EQ(names.front(), "LRU");
    EXPECT_EQ(names.back(), "MPPPB");
}

TEST(SingleCoreTest, ProducesConsistentNumbers)
{
    const auto tr = trace::makeSuiteTrace(4, 120000); // gups.fit
    trace::MaterializedTraceSource src(tr);
    const auto r = runSingleCore(src, PolicyRegistry::make("LRU"), {});
    EXPECT_EQ(r.benchmark, tr.name());
    EXPECT_EQ(r.policy, "LRU");
    EXPECT_GT(r.instructions, 0u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_LE(r.ipc, 4.0);
    EXPECT_GE(r.llcDemandAccesses, r.llcDemandMisses);
    EXPECT_NEAR(r.mpki,
                1000.0 * static_cast<double>(r.llcDemandMisses) /
                    static_cast<double>(r.instructions),
                1e-9);
}

TEST(SingleCoreTest, DeterministicAcrossRuns)
{
    const auto tr = trace::makeSuiteTrace(7, 120000);
    // One source serves both runs: the driver rewinds at entry.
    trace::MaterializedTraceSource src(tr);
    const auto a = runSingleCore(src, PolicyRegistry::make("MPPPB"), {});
    const auto b = runSingleCore(src, PolicyRegistry::make("MPPPB"), {});
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.llcDemandMisses, b.llcDemandMisses);
}

TEST(SingleCoreTest, MinNeverMissesMoreThanLru)
{
    for (unsigned bench : {6u, 9u, 14u}) {
        const auto tr = trace::makeSuiteTrace(bench, 250000);
        trace::MaterializedTraceSource src(tr);
        const auto lru =
            runSingleCore(src, PolicyRegistry::make("LRU"), {});
        const auto min = runSingleCoreMin(src, {});
        EXPECT_LE(min.llcDemandMisses, lru.llcDemandMisses)
            << tr.name();
        EXPECT_EQ(min.policy, "MIN");
    }
}

TEST(SingleCoreTest, WarmupShrinksMeasuredWindow)
{
    const auto tr = trace::makeSuiteTrace(0, 100000);
    SingleCoreConfig cfg;
    cfg.warmupFraction = 0.5;
    trace::MaterializedTraceSource src(tr);
    const auto r = runSingleCore(src, PolicyRegistry::make("LRU"), cfg);
    EXPECT_LT(r.instructions, tr.instructions());
    // Warmup stops at a record boundary; allow one pad-run of slack.
    EXPECT_GE(r.instructions, tr.instructions() / 2 - 64);
}

TEST(MultiCoreTest, RunsAMixAndReportsPerCoreIpc)
{
    const auto t0 = trace::makeSuiteTrace(0, 60000);
    const auto t1 = trace::makeSuiteTrace(4, 60000);
    const auto t2 = trace::makeSuiteTrace(7, 60000);
    const auto t3 = trace::makeSuiteTrace(25, 60000);
    MultiCoreConfig cfg;
    cfg.warmupInstructions = 40000;
    cfg.measureCycles = 50000;
    trace::MaterializedTraceSource s0(t0), s1(t1), s2(t2), s3(t3);
    const auto r = runMultiCore({&s0, &s1, &s2, &s3},
                                PolicyRegistry::make("LRU"), cfg);
    for (unsigned c = 0; c < 4; ++c) {
        EXPECT_GT(r.ipc[c], 0.0) << c;
        EXPECT_LE(r.ipc[c], 4.0) << c;
        EXPECT_GT(r.instructions[c], 0u);
    }
    EXPECT_NE(r.mixName.find(t0.name()), std::string::npos);
    EXPECT_GT(r.mpki, 0.0);
}

TEST(MultiCoreTest, WeightedSpeedupMath)
{
    MultiCoreResult r;
    r.ipc = {1.0, 2.0, 0.5, 1.0};
    const std::vector<double> single = {2.0, 2.0, 1.0, 0.5};
    const double ws = r.weightedSpeedup(single);
    EXPECT_DOUBLE_EQ(ws, 0.5 + 1.0 + 0.5 + 2.0);
    const std::vector<double> zero = {0.0, 1.0, 1.0, 1.0};
    EXPECT_THROW(r.weightedSpeedup(zero), FatalError);
}

TEST(MultiCoreTest, WeightedSpeedupValidatedAgainstCoreCount)
{
    MultiCoreResult r;
    r.ipc = {1.0, 2.0, 0.5, 1.0};
    // Any contiguous range of the right length works via std::span.
    const std::array<double, 4> arr = {2.0, 2.0, 1.0, 0.5};
    const std::vector<double> vec = {2.0, 2.0, 1.0, 0.5};
    EXPECT_DOUBLE_EQ(r.weightedSpeedup(arr), r.weightedSpeedup(vec));
    // A length mismatch against the core count must be rejected.
    const std::vector<double> three = {1.0, 1.0, 1.0};
    EXPECT_THROW(r.weightedSpeedup(three), FatalError);
    const std::vector<double> five = {1.0, 1.0, 1.0, 1.0, 1.0};
    EXPECT_THROW(r.weightedSpeedup(five), FatalError);
    // N-core results size the validation to N, not to a fixed 4.
    MultiCoreResult two;
    two.ipc = {1.0, 2.0};
    const std::vector<double> pair = {1.0, 1.0};
    EXPECT_DOUBLE_EQ(two.weightedSpeedup(pair), 3.0);
    EXPECT_THROW(two.weightedSpeedup(vec), FatalError);
}

TEST(MultiCoreTest, StandaloneIpcIsPositiveAndBounded)
{
    const auto tr = trace::makeSuiteTrace(0, 60000);
    MultiCoreConfig cfg;
    cfg.warmupInstructions = 40000;
    cfg.measureCycles = 50000;
    trace::MaterializedTraceSource src(tr);
    const double ipc = standaloneIpc(src, cfg);
    EXPECT_GT(ipc, 0.0);
    EXPECT_LE(ipc, 4.0);
}

TEST(MultiCoreTest, SharedCacheContentionReducesIpc)
{
    // Four *distinct* memory-hungry benchmarks (real mixes never
    // repeat a benchmark) must interfere in the shared LLC: per-core
    // IPC in the mix <= standalone IPC (with slack).
    const auto t0 = trace::makeSuiteTrace(7, 400000);  // thrash.2x
    const auto t1 = trace::makeSuiteTrace(9, 400000);  // scan.a
    const auto t2 = trace::makeSuiteTrace(14, 400000); // mixpc.hi
    const auto t3 = trace::makeSuiteTrace(16, 400000); // field.a
    MultiCoreConfig cfg;
    cfg.warmupInstructions = 400000;
    cfg.measureCycles = 150000;
    const std::array<const trace::Trace*, 4> traces = {&t0, &t1, &t2,
                                                       &t3};
    trace::MaterializedTraceSource s0(t0), s1(t1), s2(t2), s3(t3);
    const auto r = runMultiCore({&s0, &s1, &s2, &s3},
                                PolicyRegistry::make("LRU"), cfg);
    for (unsigned c = 0; c < 4; ++c) {
        trace::MaterializedTraceSource solo_src(*traces[c]);
        const double solo = standaloneIpc(solo_src, cfg);
        EXPECT_LE(r.ipc[c], solo * 1.10) << traces[c]->name();
    }
}

} // namespace
} // namespace mrp::sim

/**
 * @file
 * Cross-policy property sweeps: every policy must keep a cache
 * functionally correct (hits after fills, bounded victims), be
 * deterministic, and behave sanely end-to-end on a real workload.
 */

#include <gtest/gtest.h>

#include <string>

#include "cache/policy_cache.hpp"
#include "sim/single_core.hpp"
#include "trace/source.hpp"
#include "trace/workloads.hpp"
#include "util/rng.hpp"

namespace mrp {
namespace {

const char* const kAllPolicies[] = {
    "LRU",     "Random",     "SRRIP",   "DRRIP",
    "MDPP",    "SHiP",       "SDBP",    "Perceptron", "Hawkeye",
    "MPPPB",   "MPPPB-MC",   "MPPPB-DYN",
};

class EveryPolicy : public ::testing::TestWithParam<const char*>
{
};

/**
 * Random traffic through a small PolicyCache: victims must always be
 * in range (the cache panics otherwise), hits must be found, and the
 * hit/miss accounting must add up.
 */
TEST_P(EveryPolicy, FunctionalCorrectnessUnderRandomTraffic)
{
    const Addr bytes = 64 * 1024;
    const std::uint32_t ways = 16;
    const cache::CacheGeometry g(bytes, ways);
    cache::PolicyCache c(bytes, ways,
                         sim::PolicyRegistry::make(GetParam())(g, 1), 1);
    Rng rng(99);
    cache::CoreContext ctx;
    for (int i = 0; i < 100000; ++i) {
        cache::AccessInfo info;
        info.pc = 0x400000 + 4 * rng.below(32);
        info.addr = rng.below(1 << 22) * 64;
        info.type = rng.chance(0.1) ? cache::AccessType::Writeback
                    : rng.chance(0.1)
                        ? cache::AccessType::Prefetch
                        : (rng.chance(0.3) ? cache::AccessType::Store
                                           : cache::AccessType::Load);
        info.ctx = &ctx;
        const auto r = c.access(info);
        if (r.hit) {
            EXPECT_TRUE(c.contains(info.addr));
        }
        ctx.notePc(info.pc);
    }
    const auto& s = c.stats();
    EXPECT_EQ(s.demandAccesses, s.demandHits + s.demandMisses);
    EXPECT_GT(s.demandHits, 0u);
    EXPECT_GT(s.demandMisses, 0u);
}

/** End-to-end determinism: identical runs give identical cycles. */
TEST_P(EveryPolicy, EndToEndDeterminism)
{
    const auto tr = trace::makeSuiteTrace(14, 150000); // mixpc.hi
    const auto factory = sim::PolicyRegistry::make(GetParam());
    // One source serves both runs: the driver rewinds at entry.
    trace::MaterializedTraceSource src(tr);
    const auto a = sim::runSingleCore(src, factory, {});
    const auto b = sim::runSingleCore(src, factory, {});
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.llcDemandMisses, b.llcDemandMisses);
    EXPECT_EQ(a.llcBypasses, b.llcBypasses);
}

/** IPC must stay within the machine's physical range. */
TEST_P(EveryPolicy, IpcWithinMachineBounds)
{
    const auto tr = trace::makeSuiteTrace(21, 150000); // prodcons.a
    trace::MaterializedTraceSource src(tr);
    const auto r =
        sim::runSingleCore(src, sim::PolicyRegistry::make(GetParam()), {});
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_LE(r.ipc, 4.0);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, EveryPolicy,
                         ::testing::ValuesIn(kAllPolicies),
                         [](const auto& info) {
                             std::string n = info.param;
                             for (char& ch : n)
                                 if (ch == '-')
                                     ch = '_';
                             return n;
                         });

/**
 * On a heavily LRU-adversarial workload, each predictor-based policy
 * must beat plain LRU (the paper's core premise).
 */
class PredictorPolicies : public ::testing::TestWithParam<const char*>
{
};

TEST_P(PredictorPolicies, BeatsLruOnThrash)
{
    const auto tr = trace::makeSuiteTrace(32, 1200000); // thrash.1p2x
    trace::MaterializedTraceSource src(tr);
    const auto lru =
        sim::runSingleCore(src, sim::PolicyRegistry::make("LRU"), {});
    const auto r =
        sim::runSingleCore(src, sim::PolicyRegistry::make(GetParam()), {});
    EXPECT_LT(r.llcDemandMisses, lru.llcDemandMisses) << GetParam();
    EXPECT_GT(r.ipc, lru.ipc) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Predictors, PredictorPolicies,
                         ::testing::Values("SDBP", "Perceptron",
                                           "Hawkeye", "MPPPB"));

} // namespace
} // namespace mrp

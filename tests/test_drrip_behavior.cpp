/**
 * @file
 * Behavioural tests of DRRIP's set dueling: on a pure cyclic-thrash
 * reference stream, bimodal insertion must win the duel and beat
 * static SRRIP; on an LRU-friendly stream, DRRIP must not lose to
 * SRRIP.
 */

#include <gtest/gtest.h>

#include "sim/single_core.hpp"
#include "trace/source.hpp"
#include "trace/workloads.hpp"

namespace mrp {
namespace {

TEST(DrripBehavior, BeatsSrripOnCyclicThrash)
{
    const auto tr = trace::makeSuiteTrace(32, 1500000); // thrash.1p2x
    trace::MaterializedTraceSource src(tr);
    const auto srrip =
        sim::runSingleCore(src, sim::PolicyRegistry::make("SRRIP"), {});
    const auto drrip =
        sim::runSingleCore(src, sim::PolicyRegistry::make("DRRIP"), {});
    // SRRIP degenerates to ~LRU on a cyclic working set that exceeds
    // capacity; BRRIP's bimodal insertion retains a stable fraction.
    EXPECT_LT(drrip.llcDemandMisses, srrip.llcDemandMisses * 9 / 10);
}

TEST(DrripBehavior, MatchesSrripOnFriendlyWorkload)
{
    const auto tr = trace::makeSuiteTrace(4, 600000); // gups.fit
    trace::MaterializedTraceSource src(tr);
    const auto srrip =
        sim::runSingleCore(src, sim::PolicyRegistry::make("SRRIP"), {});
    const auto drrip =
        sim::runSingleCore(src, sim::PolicyRegistry::make("DRRIP"), {});
    // Nothing to duel over: both should be near-identical.
    EXPECT_NEAR(static_cast<double>(drrip.llcDemandMisses),
                static_cast<double>(srrip.llcDemandMisses),
                0.1 * static_cast<double>(srrip.llcDemandMisses) + 50);
}

TEST(DrripBehavior, SrripStillHandlesScansBetterThanLru)
{
    const auto tr = trace::makeSuiteTrace(12, 1200000); // phase.ab
    trace::MaterializedTraceSource src(tr);
    const auto lru =
        sim::runSingleCore(src, sim::PolicyRegistry::make("LRU"), {});
    const auto srrip =
        sim::runSingleCore(src, sim::PolicyRegistry::make("SRRIP"), {});
    EXPECT_LE(srrip.llcDemandMisses, lru.llcDemandMisses * 11 / 10);
}

} // namespace
} // namespace mrp

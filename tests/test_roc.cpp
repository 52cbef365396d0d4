/**
 * @file
 * Tests for the ROC accumulator and the measurement-only probe.
 */

#include <gtest/gtest.h>

#include <memory>

#include "policy/sdbp.hpp"
#include "sim/roc_probe.hpp"
#include "sim/single_core.hpp"
#include "stats/roc.hpp"
#include "trace/source.hpp"
#include "trace/workloads.hpp"

namespace mrp {
namespace {

TEST(RocAccumulatorTest, PerfectPredictorCurve)
{
    stats::RocAccumulator roc(-10, 10);
    for (int i = 0; i < 100; ++i) {
        roc.add(8, true);   // dead with high confidence
        roc.add(-8, false); // live with low confidence
    }
    EXPECT_EQ(roc.deadCount(), 100u);
    EXPECT_EQ(roc.liveCount(), 100u);
    // At a threshold of 0: TPR 1, FPR 0.
    const auto curve = roc.curve();
    bool found = false;
    for (const auto& p : curve) {
        if (p.threshold == 0) {
            EXPECT_DOUBLE_EQ(p.truePositiveRate, 1.0);
            EXPECT_DOUBLE_EQ(p.falsePositiveRate, 0.0);
            found = true;
        }
    }
    EXPECT_TRUE(found);
    EXPECT_DOUBLE_EQ(roc.tprAtFpr(0.5), 1.0);
}

TEST(RocAccumulatorTest, RandomPredictorIsDiagonal)
{
    stats::RocAccumulator roc(-100, 100);
    Rng rng(6);
    for (int i = 0; i < 200000; ++i)
        roc.add(static_cast<int>(rng.range(0, 200)) - 100,
                rng.chance(0.5));
    // TPR ~= FPR everywhere for an uninformative confidence.
    for (double f : {0.2, 0.5, 0.8})
        EXPECT_NEAR(roc.tprAtFpr(f), f, 0.02);
}

TEST(RocAccumulatorTest, CurveIsMonotone)
{
    stats::RocAccumulator roc(-50, 50);
    Rng rng(7);
    for (int i = 0; i < 50000; ++i) {
        const bool dead = rng.chance(0.4);
        const int conf = static_cast<int>(rng.range(0, 60)) -
                         (dead ? 10 : 50);
        roc.add(conf, dead);
    }
    const auto curve = roc.curve();
    for (std::size_t i = 1; i < curve.size(); ++i) {
        EXPECT_LE(curve[i].falsePositiveRate,
                  curve[i - 1].falsePositiveRate);
        EXPECT_LE(curve[i].truePositiveRate,
                  curve[i - 1].truePositiveRate);
    }
    EXPECT_DOUBLE_EQ(curve.front().falsePositiveRate, 1.0);
    EXPECT_DOUBLE_EQ(curve.back().truePositiveRate, 0.0);
}

TEST(RocAccumulatorTest, ClampsOutOfRangeConfidences)
{
    stats::RocAccumulator roc(-5, 5);
    roc.add(100, true);
    roc.add(-100, false);
    EXPECT_EQ(roc.deadCount(), 1u);
    EXPECT_EQ(roc.liveCount(), 1u);
}

TEST(RocAccumulatorTest, EmptyOrOneSidedCurve)
{
    stats::RocAccumulator roc(-5, 5);
    EXPECT_TRUE(roc.curve().empty());
    roc.add(1, true);
    EXPECT_TRUE(roc.curve().empty()); // needs both classes
    EXPECT_THROW(stats::RocAccumulator(5, 5), FatalError);
}

TEST(RocProbeTest, ResolvesGroundTruthOnRealRun)
{
    const sim::SingleCoreConfig cfg;
    const cache::CacheGeometry geom(cfg.hierarchy.llcBytes,
                                    cfg.hierarchy.llcWays);
    std::vector<std::unique_ptr<policy::ReusePredictor>> preds;
    preds.push_back(std::make_unique<policy::SdbpPredictor>(geom, 1));
    sim::RocProbe probe(geom, std::move(preds));
    // Long enough for the 2MB LLC to fill and start evicting; scan.b
    // has an LLC-resident hot set, so both outcome classes occur.
    const auto tr = trace::makeSuiteTrace(10, 900000); // scan.b
    trace::MaterializedTraceSource src(tr);
    sim::runSingleCore(src, sim::PolicyRegistry::make("LRU"), cfg,
                       {&probe});
    EXPECT_GT(probe.roc(0).deadCount(), 1000u);
    EXPECT_GT(probe.roc(0).liveCount(), 0u);
}

TEST(RocProbeTest, RequiresAtLeastOnePredictor)
{
    const cache::CacheGeometry geom(2 * 1024 * 1024, 16);
    std::vector<std::unique_ptr<policy::ReusePredictor>> none;
    EXPECT_THROW(sim::RocProbe(geom, std::move(none)), FatalError);
}

} // namespace
} // namespace mrp

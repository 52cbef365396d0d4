/**
 * @file
 * The benchmark's decorators must be invisible to the simulation: a
 * decorated run's report is byte-identical to the undecorated one, and
 * the decorator's LLC counts equal the runner's. With warmup off the
 * decorator (which sees every call) and LevelStats (which covers the
 * measured window) count the same accesses.
 */

#include <gtest/gtest.h>

#include "runner/experiment_runner.hpp"
#include "runner/report.hpp"
#include "trace/workloads.hpp"
#include "traced.hpp"

namespace {

using mrp::runner::ExperimentRunner;
using mrp::runner::PolicySpec;
using mrp::runner::RunRequest;

constexpr mrp::InstCount kInsts = 300000;

std::vector<mrp::trace::Trace>
shortTraces()
{
    std::vector<mrp::trace::Trace> out;
    for (const unsigned idx : {0u, 7u, 19u})
        out.push_back(mrp::trace::makeSuiteTrace(idx, kInsts));
    return out;
}

std::vector<RunRequest>
singleCoreBatch(const std::vector<mrp::trace::Trace>& traces,
                const std::string& policy)
{
    mrp::sim::SingleCoreConfig cfg;
    cfg.warmupFraction = 0.0;
    std::vector<RunRequest> batch;
    for (const auto& t : traces)
        batch.push_back(RunRequest::singleCore(
            mrp::trace::TraceSpec::borrowed(t), PolicySpec::byName(policy),
            cfg));
    return batch;
}

class DecoratorTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(DecoratorTest, PolicyDecoratorThroughRunnerIsInvisible)
{
    const auto traces = shortTraces();
    const auto plain = singleCoreBatch(traces, GetParam());
    const auto expected = ExperimentRunner(1).run(plain);

    std::vector<perfbench::PolicyStats> stats(plain.size());
    auto decorated = plain;
    for (std::size_t i = 0; i < decorated.size(); ++i)
        decorated[i].policy =
            perfbench::timedPolicy(plain[i].policy, stats[i]);
    const auto got = ExperimentRunner(2).run(decorated);

    EXPECT_EQ(mrp::runner::toJson(got), mrp::runner::toJson(expected));
    for (std::size_t i = 0; i < plain.size(); ++i) {
        const auto& r = expected.results[i];
        ASSERT_TRUE(r.ok()) << r.error;
        EXPECT_EQ(stats[i].demandHits + stats[i].demandMisses,
                  r.llcDemandAccesses);
        EXPECT_EQ(stats[i].demandMisses, r.llcDemandMisses);
        EXPECT_EQ(stats[i].bypasses, r.llcBypasses);
        EXPECT_GT(stats[i].calls(), 0u);
    }
}

TEST_P(DecoratorTest, TracedBatchMatchesRunner)
{
    const auto traces = shortTraces();
    const auto batch = singleCoreBatch(traces, GetParam());
    const auto expected = ExperimentRunner(1).run(batch);
    const auto traced = perfbench::runTraced(batch, 2);

    EXPECT_EQ(mrp::runner::toJson(traced.set),
              mrp::runner::toJson(expected));
    ASSERT_EQ(traced.spans.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const auto& r = expected.results[i];
        const auto& sp = traced.spans[i];
        EXPECT_EQ(sp.index, i);
        EXPECT_EQ(sp.policy.demandHits + sp.policy.demandMisses,
                  r.llcDemandAccesses);
        EXPECT_EQ(sp.policy.demandMisses, r.llcDemandMisses);
        EXPECT_EQ(sp.policy.bypasses, r.llcBypasses);
        EXPECT_EQ(sp.trace.records, traces[i].records().size());
        EXPECT_LE(sp.startS, sp.endS);
    }
}

INSTANTIATE_TEST_SUITE_P(Policies, DecoratorTest,
                         ::testing::Values("LRU", "MPPPB", "MPPPB-MC"));

TEST(DecoratorMultiCoreTest, TracedMixMatchesRunner)
{
    std::vector<mrp::trace::Trace> traces;
    for (const unsigned idx : {1u, 4u, 9u, 22u})
        traces.push_back(mrp::trace::makeSuiteTrace(idx, 200000));
    mrp::sim::MultiCoreConfig cfg;
    cfg.warmupInstructions = 200000;
    cfg.measureCycles = 100000;
    std::array<mrp::trace::TraceSpec, 4> specs = {
        mrp::trace::TraceSpec::borrowed(traces[0]),
        mrp::trace::TraceSpec::borrowed(traces[1]),
        mrp::trace::TraceSpec::borrowed(traces[2]),
        mrp::trace::TraceSpec::borrowed(traces[3])};
    std::vector<RunRequest> batch;
    for (const char* p : {"LRU", "MPPPB-MC"})
        batch.push_back(
            RunRequest::multiCore(specs, PolicySpec::byName(p), cfg));

    const auto expected = ExperimentRunner(1).run(batch);
    const auto traced = perfbench::runTraced(batch, 2);
    EXPECT_EQ(mrp::runner::toJson(traced.set),
              mrp::runner::toJson(expected));
    for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_TRUE(expected.results[i].ok()) << expected.results[i].error;
        // The decorator also sees warmup, so it bounds the window's count.
        EXPECT_GE(traced.spans[i].policy.demandMisses,
                  expected.results[i].llcDemandMisses);
        EXPECT_GT(traced.spans[i].trace.records, 0u);
    }
}

TEST(HookStatTest, ScalesSampledTimeAndSubtractsClockCost)
{
    perfbench::HookStat h;
    h.calls = 640;
    h.sampled = 10;
    h.sampledNs = 10 * 120; // 120 ns per sample, 20 of it the clock
    EXPECT_NEAR(h.seconds(20.0), 640 * 100e-9, 1e-12);
    EXPECT_EQ(perfbench::HookStat{}.seconds(20.0), 0.0);
}

TEST(HookStatTest, SamplesOneCallInN)
{
    perfbench::HookStat h;
    int ran = 0;
    for (std::uint64_t i = 0; i < 3 * perfbench::kSampleEvery; ++i)
        perfbench::sampledCall(h, [&] { ++ran; });
    EXPECT_EQ(ran, static_cast<int>(3 * perfbench::kSampleEvery));
    EXPECT_EQ(h.calls, 3 * perfbench::kSampleEvery);
    EXPECT_EQ(h.sampled, 3u);
}

} // namespace

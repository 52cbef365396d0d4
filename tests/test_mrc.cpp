/**
 * @file
 * Tests for the miss-ratio-curve engine: exact Olken stack-distance
 * accounting, SHARDS sampling (fixed-rate and fixed-size), the
 * accuracy contract against the real LRU simulator, profile
 * determinism across delivery modes, the sampled TraceSpec decorator,
 * geometry validation, and the sampled halving rung — including the
 * headline property that an MRC-gated halving study picks the same
 * winner as a full-fidelity study with a fraction of the full
 * simulations.
 *
 * Accuracy tests use the same differentiating corpus as test_sweep
 * (drift.slow + gups.fit behind a 32KB/256KB upper hierarchy): at
 * those footprints the profiled capacities straddle the working sets,
 * so a bookkeeping bug shows up as percentage points, not noise.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "cache/geometry.hpp"
#include "mrc/engine.hpp"
#include "mrc/objective.hpp"
#include "mrc/profile.hpp"
#include "mrc/shards.hpp"
#include "mrc/stack_distance.hpp"
#include "runner/experiment_runner.hpp"
#include "stats/reuse_histogram.hpp"
#include "sweep/study.hpp"
#include "telemetry/metrics.hpp"
#include "trace/sampled_source.hpp"
#include "trace/source.hpp"
#include "util/json_reader.hpp"

namespace mrp::mrc {
namespace {

constexpr std::uint64_t kCold = StackDistanceTracker::kCold;

/** One-load-per-block synthetic trace (1 instruction per record). */
trace::Trace
loadsTrace(std::string name, const std::vector<Addr>& blocks)
{
    std::vector<trace::Record> recs;
    recs.reserve(blocks.size());
    for (const Addr b : blocks)
        recs.push_back(trace::Record::memOp(0x400000 + b, trace::Op::Load,
                                            b * kBlockBytes));
    return trace::Trace(std::move(name), std::move(recs),
                        static_cast<InstCount>(blocks.size()));
}

/** Demand miss ratios of a no-prefetch LRU LLC at each size, one
 * simulation per (workload, size) cell — the ground truth the
 * one-pass engine must reproduce. */
std::vector<std::vector<double>>
simulatedMissRatios(const std::vector<trace::TraceSpec>& corpus,
                    const MrcConfig& cfg,
                    const std::vector<Addr>& sizes)
{
    sim::SingleCoreConfig sc;
    sc.hierarchy = cfg.hierarchy;
    sc.hierarchy.prefetchEnabled = false;
    sc.warmupFraction = cfg.warmupFraction;
    const auto policy = runner::PolicySpec::byName("LRU");

    std::vector<runner::RunRequest> batch;
    for (const auto& spec : corpus) {
        for (const Addr bytes : sizes) {
            sc.hierarchy.llcBytes = bytes;
            batch.push_back(
                runner::RunRequest::singleCore(spec, policy, sc));
        }
    }
    const runner::ExperimentRunner pool(0);
    const auto set = pool.run(batch);

    std::vector<std::vector<double>> out(corpus.size());
    std::size_t r = 0;
    for (std::size_t w = 0; w < corpus.size(); ++w) {
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            const auto& res = set.results[r++];
            EXPECT_TRUE(res.ok()) << res.error;
            out[w].push_back(
                res.llcDemandAccesses == 0
                    ? 0.0
                    : static_cast<double>(res.llcDemandMisses) /
                          static_cast<double>(res.llcDemandAccesses));
        }
    }
    return out;
}

TEST(StackDistanceTest, DistancesCountDistinctIntermediateKeys)
{
    StackDistanceTracker t;
    EXPECT_EQ(t.touch(1), kCold);
    EXPECT_EQ(t.touch(2), kCold);
    EXPECT_EQ(t.touch(3), kCold);
    EXPECT_EQ(t.touch(1), 2u); // 2 and 3 above it
    EXPECT_EQ(t.touch(1), 0u); // immediate re-touch
    EXPECT_EQ(t.touch(2), 2u); // 1 and 3 above it
    // Repeated touches of one key between two touches of another
    // count once: distance is distinct keys, not accesses.
    EXPECT_EQ(t.touch(3), 2u);
    EXPECT_EQ(t.liveKeys(), 3u);
}

TEST(StackDistanceTest, EraseMakesNextTouchColdAgain)
{
    StackDistanceTracker t;
    t.touch(7);
    t.touch(8);
    t.erase(7);
    EXPECT_EQ(t.liveKeys(), 1u);
    EXPECT_EQ(t.touch(7), kCold);
    // 8 saw only 7 re-enter above it.
    EXPECT_EQ(t.touch(8), 1u);
    t.erase(999); // absent key: no-op
    EXPECT_EQ(t.liveKeys(), 2u);
}

TEST(StackDistanceTest, CompactionPreservesDistancesAtScale)
{
    // Enough churn to force several dense-prefix compactions; the
    // LRU-depth semantics must be unaffected.
    StackDistanceTracker t;
    constexpr std::uint64_t n = 5000;
    for (std::uint64_t k = 0; k < n; ++k)
        t.touch(k);
    EXPECT_EQ(t.touch(0), n - 1);
    for (int round = 0; round < 20; ++round)
        for (std::uint64_t k = 0; k < n; ++k)
            t.touch(k);
    // After an ascending sweep the stack holds n-1 down to 0, so key
    // 1 sits under every key but 0: distance n-2.
    EXPECT_EQ(t.touch(1), n - 2);
    EXPECT_EQ(t.liveKeys(), n);
}

TEST(Log2HistogramTest, WeightBelowPow2IsAStrictPrefixSum)
{
    stats::Log2Histogram h;
    for (const std::uint64_t v : {0u, 1u, 2u, 3u, 4u})
        h.record(v);
    EXPECT_DOUBLE_EQ(h.weightBelowPow2(0), 1.0); // {0}
    EXPECT_DOUBLE_EQ(h.weightBelowPow2(1), 2.0); // {0,1}
    EXPECT_DOUBLE_EQ(h.weightBelowPow2(2), 4.0); // {0,1,2,3}
    EXPECT_DOUBLE_EQ(h.weightBelowPow2(3), 5.0);
    EXPECT_DOUBLE_EQ(h.total(), 5.0);
    // The SHARDS_adj correction path may subtract weight.
    h.addToFirstBucket(-0.5);
    EXPECT_DOUBLE_EQ(h.weightBelowPow2(0), 0.5);
    EXPECT_DOUBLE_EQ(h.total(), 4.5);
}

TEST(ShardsSamplerTest, FixedSizeEvictsDownToCapAndLowersRate)
{
    ShardsSampler s(1, 64); // start at rate 1/2, cap 64 blocks
    const double rate0 = s.rate();
    EXPECT_DOUBLE_EQ(rate0, 0.5);
    std::size_t tracked = 0;
    for (std::uint64_t k = 0; k < 100000; ++k) {
        if (!s.keeps(k))
            continue;
        ++tracked;
        for (const std::uint64_t e : s.insert(k)) {
            (void)e;
            --tracked;
        }
        // Subset property: every tracked key still passes keeps()
        // (eviction sweeps whole hash classes, never splits one).
        EXPECT_LE(s.occupancy(), 64u);
        EXPECT_EQ(s.occupancy(), tracked);
    }
    EXPECT_LE(s.maxOccupancy(), 64u);
    EXPECT_GT(s.evictions(), 0u);
    EXPECT_LT(s.rate(), rate0);
}

TEST(MrcEngineTest, AllColdScanMissesEverywhere)
{
    std::vector<Addr> blocks(20000);
    for (std::size_t i = 0; i < blocks.size(); ++i)
        blocks[i] = static_cast<Addr>(i);
    trace::MaterializedTraceSource src(loadsTrace("scan", blocks));

    MrcConfig cfg;
    cfg.mode = MrcMode::Exact;
    cfg.warmupFraction = 0.0;
    const MrcProfile p = buildProfile(src, cfg);
    EXPECT_EQ(p.coldSamples, p.demandSamples);
    EXPECT_GT(p.demandSamples, 0u);
    for (const auto& pt : p.points)
        EXPECT_DOUBLE_EQ(pt.missRatio, 1.0)
            << "at " << pt.bytes << " bytes";
}

TEST(MrcEngineTest, SingleBlockTraceIsOneColdTouch)
{
    // Every access after the first hits in L1; the LLC-level stream
    // is exactly one cold demand access.
    trace::MaterializedTraceSource src(
        loadsTrace("one", std::vector<Addr>(10000, 42)));
    MrcConfig cfg;
    cfg.mode = MrcMode::Exact;
    cfg.warmupFraction = 0.0;
    const MrcProfile p = buildProfile(src, cfg);
    EXPECT_EQ(p.demandSamples, 1u);
    EXPECT_EQ(p.coldSamples, 1u);
    for (const auto& pt : p.points)
        EXPECT_DOUBLE_EQ(pt.missRatio, 1.0);
}

TEST(MrcEngineTest, NoMemoryTraceYieldsZeroSamplesWithoutCrashing)
{
    trace::Trace t("nomem", {trace::Record::nonMem(0x400, 1000)}, 1000);
    trace::MaterializedTraceSource src(std::move(t));
    MrcConfig cfg;
    cfg.warmupFraction = 0.0;
    const MrcProfile p = buildProfile(src, cfg);
    EXPECT_EQ(p.demandSamples, 0u);
    for (const auto& pt : p.points)
        EXPECT_DOUBLE_EQ(pt.missRatio, 0.0);
}

TEST(MrcEngineTest, FixedSizeCapBoundsTrackedBlocks)
{
    std::vector<Addr> blocks(100000);
    for (std::size_t i = 0; i < blocks.size(); ++i)
        blocks[i] = static_cast<Addr>(i);
    trace::MaterializedTraceSource src(loadsTrace("bigscan", blocks));

    MrcConfig cfg;
    cfg.mode = MrcMode::ShardsAdj;
    cfg.rateLog2 = 1;
    cfg.maxSamples = 128;
    cfg.warmupFraction = 0.0;
    const MrcProfile p = buildProfile(src, cfg);
    EXPECT_LE(p.samplerPeakOccupancy, 128u);
    EXPECT_GT(p.samplerEvictions, 0u);
    EXPECT_LT(p.samplingRate, 0.5);
    // Rate correction keeps the curve sane: an all-cold scan still
    // misses everywhere.
    for (const auto& pt : p.points)
        EXPECT_NEAR(pt.missRatio, 1.0, 1e-9);
}

TEST(MrcEngineTest, GaugesExportedWhenRegistryAttached)
{
    std::vector<Addr> blocks(5000);
    for (std::size_t i = 0; i < blocks.size(); ++i)
        blocks[i] = static_cast<Addr>(i % 1024);
    trace::MaterializedTraceSource src(loadsTrace("gauges", blocks));

    telemetry::MetricsRegistry reg;
    MrcConfig cfg;
    cfg.warmupFraction = 0.0;
    cfg.registry = &reg;
    const MrcProfile p = buildProfile(src, cfg);
    EXPECT_DOUBLE_EQ(reg.gauge("mrc.demand_samples").value(),
                     static_cast<double>(p.demandSamples));
    EXPECT_DOUBLE_EQ(reg.gauge("mrc.sampler.final_rate").value(),
                     p.samplingRate);
    EXPECT_DOUBLE_EQ(reg.gauge("mrc.sampler.peak_occupancy").value(),
                     static_cast<double>(p.samplerPeakOccupancy));
}

TEST(MrcAccuracyTest, ExactAndShardsMatchLruSimulationWithin2pp)
{
    const std::vector<trace::TraceSpec> corpus = {
        trace::TraceSpec::suite(3, 400000), // drift.slow
        trace::TraceSpec::suite(4, 400000), // gups.fit
    };
    const std::vector<Addr> sizes = {128 * 1024, 512 * 1024,
                                     2048 * 1024};
    MrcConfig cfg;
    cfg.sizesBytes = sizes;
    const auto sim = simulatedMissRatios(corpus, cfg, sizes);

    for (const MrcMode mode : {MrcMode::Exact, MrcMode::ShardsAdj}) {
        cfg.mode = mode;
        const auto profiles = profileCorpus(corpus, cfg, 2);
        ASSERT_EQ(profiles.size(), corpus.size());
        for (std::size_t w = 0; w < profiles.size(); ++w) {
            for (std::size_t s = 0; s < sizes.size(); ++s) {
                const double gap_pp =
                    std::abs(profiles[w].points[s].missRatio -
                             sim[w][s]) *
                    100.0;
                EXPECT_LE(gap_pp, 2.0)
                    << mrcModeName(mode) << " "
                    << profiles[w].benchmark << " @ "
                    << sizes[s] / 1024 << " KB";
            }
        }
    }
}

TEST(MrcDeterminismTest, ProfileBytesInvariantToJobsAndDelivery)
{
    const std::vector<trace::TraceSpec> corpus = {
        trace::TraceSpec::suite(3, 120000),
        trace::TraceSpec::suite(4, 120000),
    };
    MrcConfig cfg;
    cfg.sizesBytes = {64 * 1024, 256 * 1024, 1024 * 1024};

    const std::string base = corpusJson(profileCorpus(corpus, cfg, 1));
    EXPECT_NE(base.find(kMrcSchema), std::string::npos);

    EXPECT_EQ(base, corpusJson(profileCorpus(corpus, cfg, 2)));

    trace::TraceSpec::OpenOptions opts;
    opts.decodeAhead = true;
    EXPECT_EQ(base, corpusJson(profileCorpus(corpus, cfg, 2, opts)));

    opts.decodeAhead = false;
    opts.chunkRecords = 777; // ragged chunk boundaries
    EXPECT_EQ(base, corpusJson(profileCorpus(corpus, cfg, 1, opts)));
}

TEST(MrcProfileTest, MissRatioAtRequiresAProfiledSize)
{
    MrcProfile p;
    p.points = {{128 * 1024, 0.5}};
    EXPECT_DOUBLE_EQ(p.missRatioAt(128 * 1024), 0.5);
    try {
        p.missRatioAt(64 * 1024);
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::Config);
    }
}

TEST(SampledSpecTest, PreservesInstructionCountExactly)
{
    const auto child = trace::TraceSpec::suite(3, 100000);
    const auto spec = trace::TraceSpec::sampled(child, 3);
    EXPECT_EQ(spec.instructions(), child.instructions());
    EXPECT_EQ(spec.displayName(), child.displayName() + "~s3");

    // Dropped memory records are rewritten as 1-instruction non-mem
    // runs, so the streamed instruction total is exact — budget
    // accounting and IPC denominators cannot drift.
    auto src = spec.open();
    InstCount streamed = 0, mem = 0;
    for (auto chunk = src->nextChunk(); !chunk.empty();
         chunk = src->nextChunk()) {
        for (const auto& r : chunk) {
            streamed += r.count();
            if (r.isMem())
                ++mem;
        }
    }
    auto full = child.open();
    InstCount fullStreamed = 0, fullMem = 0;
    for (auto chunk = full->nextChunk(); !chunk.empty();
         chunk = full->nextChunk()) {
        for (const auto& r : chunk) {
            fullStreamed += r.count();
            if (r.isMem())
                ++fullMem;
        }
    }
    EXPECT_EQ(streamed, fullStreamed);
    // ~1/8 of blocks sampled; the mem stream must shrink accordingly.
    EXPECT_LT(mem, fullMem / 4);
    EXPECT_GT(mem, 0u);
}

TEST(SampledSpecTest, JsonRoundTripReopensTheSameStream)
{
    const auto spec = trace::TraceSpec::sampled(
        trace::TraceSpec::suite(4, 60000, 9), 2);
    const std::string doc = spec.toJson();
    EXPECT_NE(doc.find("\"sampled\""), std::string::npos);
    const auto back = trace::TraceSpec::fromJson(
        json::parseJson(doc, "sampled spec"), "sampled spec");
    EXPECT_EQ(back.displayName(), spec.displayName());
    EXPECT_EQ(back.instructions(), spec.instructions());

    auto a = spec.open();
    auto b = back.open();
    InstCount memA = 0, memB = 0;
    for (auto chunk = a->nextChunk(); !chunk.empty();
         chunk = a->nextChunk())
        for (const auto& r : chunk)
            memA += r.isMem() ? 1 : 0;
    for (auto chunk = b->nextChunk(); !chunk.empty();
         chunk = b->nextChunk())
        for (const auto& r : chunk)
            memB += r.isMem() ? 1 : 0;
    EXPECT_EQ(memA, memB);
}

TEST(SampledSpecTest, RejectsNestingBorrowedAndZeroRate)
{
    const auto child = trace::TraceSpec::suite(3, 50000);
    const auto once = trace::TraceSpec::sampled(child, 3);
    EXPECT_THROW((void)trace::TraceSpec::sampled(once, 2), FatalError);
    EXPECT_THROW((void)trace::TraceSpec::sampled(child, 0), FatalError);
    EXPECT_THROW((void)trace::TraceSpec::sampled(child, 24), FatalError);

    const trace::Trace t("b", {trace::Record::nonMem(1, 10)}, 10);
    EXPECT_THROW(
        (void)trace::TraceSpec::sampled(trace::TraceSpec::borrowed(t), 3),
        FatalError);
}

TEST(GeometryTest, DescribeInvalidNamesTheDefect)
{
    using cache::CacheGeometry;
    EXPECT_TRUE(CacheGeometry::describeInvalid(128 * 1024, 16).empty());
    EXPECT_FALSE(CacheGeometry::describeInvalid(0, 16).empty());
    EXPECT_FALSE(CacheGeometry::describeInvalid(1024, 0).empty());
    // 96KB / (64B * 16 ways) = 96 sets: not a power of two.
    EXPECT_FALSE(CacheGeometry::describeInvalid(96 * 1024, 16).empty());
    // 512B with 16 ways: not even one full set.
    EXPECT_FALSE(CacheGeometry::describeInvalid(512, 16).empty());
}

TEST(GeometryTest, CorpusEvaluatorRejectsBadGeometryUpFront)
{
    sweep::CorpusConfig cc;
    cc.workloads = {3};
    cc.fullInstructions = 50000;
    cc.sim.hierarchy.llcBytes = 96 * 1024; // 96 sets at 16 ways
    try {
        sweep::CorpusEvaluator eval(cc);
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::Config);
        EXPECT_NE(std::string(e.what()).find("LLC"),
                  std::string::npos);
    }
}

std::shared_ptr<sweep::CorpusEvaluator>
gatedCorpus()
{
    sweep::CorpusConfig cc;
    cc.workloads = {3, 4};
    cc.fullInstructions = 120000;
    cc.sim.hierarchy.llcBytes = 128 * 1024;
    return std::make_shared<sweep::CorpusEvaluator>(cc);
}

TEST(SampledRungObjectiveTest, FlaggedBudgetsSampleAndScaleTheRuns)
{
    SampledRungObjective obj(gatedCorpus(), 3);
    const core::MpppbConfig cfg = core::singleThreadMpppbConfig();

    // Unflagged budgets pass through to full-fidelity evaluation.
    const auto full = obj.requests(cfg, 0);
    ASSERT_EQ(full.size(), 2u);
    EXPECT_EQ(full[0].sources[0].displayName().find(trace::kSampledNameMarker),
              std::string::npos);

    const auto sampled =
        obj.requests(cfg, 15000 | sweep::kSampledBudgetFlag);
    ASSERT_EQ(sampled.size(), 2u);
    for (const auto& req : sampled) {
        EXPECT_NE(req.sources[0].displayName().find("~s3"), std::string::npos);
        EXPECT_EQ(req.sources[0].instructions(), 15000u);
        const auto& sc =
            std::get<sim::SingleCoreConfig>(req.config);
        // Capacities shrink with the reference stream (mini-sim).
        EXPECT_EQ(sc.hierarchy.llcBytes, (128u * 1024) >> 3);
        EXPECT_EQ(sc.hierarchy.l1Bytes,
                  sim::SingleCoreConfig{}.hierarchy.l1Bytes >> 3);
    }
}

TEST(SampledRungObjectiveTest, ScoreCorrectsRateAndDiscountsFitness)
{
    SampledRungObjective obj(gatedCorpus(), 3);

    runner::RunResult r;
    r.benchmark = "drift.slow~s3";
    r.mpki = 2.0;
    const auto s = obj.score({&r});
    EXPECT_DOUBLE_EQ(s.mpki, 16.0); // 2.0 * 2^3
    EXPECT_DOUBLE_EQ(s.fitness, -16.0 * kSampledFitnessDiscount);

    // Full-fidelity results flow through the wrapped objective
    // untouched: the discount never taints a real measurement.
    runner::RunResult f;
    f.benchmark = "drift.slow";
    f.mpki = 2.0;
    const auto fs = obj.score({&f});
    EXPECT_DOUBLE_EQ(fs.mpki, 2.0);
    EXPECT_DOUBLE_EQ(fs.fitness, -2.0);
}

TEST(SampledRungObjectiveTest, RejectsRatesThatUnderflowTheHierarchy)
{
    // 128KB >> 10 = 128B, below one 16-way set of 64B blocks.
    EXPECT_THROW(SampledRungObjective(gatedCorpus(), 10), FatalError);
    EXPECT_THROW(SampledRungObjective(gatedCorpus(), 0), FatalError);
}

TEST(MrcGatedHalvingTest, SameWinnerWithFarFewerFullSimulations)
{
    sweep::SearchSpace space;
    space.featureSlots = 4;
    space.searchThresholds = true;
    auto evaluator = gatedCorpus();

    // Baseline: 8 random candidates, every one simulated at full
    // fidelity (single-rung halving = pure random search).
    sweep::HalvingStrategy::Config base;
    base.initial = 8;
    base.eta = 8;
    base.rungs = 1;
    base.fullInstructions = 120000;
    sweep::HalvingStrategy baseStrategy(space, base, 7);
    sweep::CorpusMpkiObjective baseObjective(evaluator);
    sweep::StudyConfig baseCfg;
    baseCfg.name = "mrc-gate-base";
    baseCfg.seed = 7;
    sweep::Study baseStudy(space, baseStrategy, baseObjective, baseCfg);
    const auto baseResult = baseStudy.run();

    // Gated: the same 8 candidates (same strategy seed) screened on
    // the SHARDS-sampled rung, only the survivor simulated fully.
    sweep::HalvingStrategy::Config gate = base;
    gate.rungs = 2;
    gate.mrcRateLog2 = 3;
    sweep::HalvingStrategy gateStrategy(space, gate, 7);
    SampledRungObjective gateObjective(evaluator, 3);
    sweep::StudyConfig gateCfg;
    gateCfg.name = "mrc-gate";
    gateCfg.seed = 7;
    sweep::Study gateStudy(space, gateStrategy, gateObjective, gateCfg);
    const auto gateResult = gateStudy.run();

    // Full-fidelity simulation odometer: the sampled rung 0 does not
    // count, so the gated study pays 1 full simulation to the
    // baseline's 8 — an 8x (>= 5x) reduction for the same answer.
    std::size_t baseFull = 0;
    for (const auto& g : baseResult.generations)
        baseFull += g.simulations;
    ASSERT_EQ(gateResult.generations.size(), 2u);
    const std::size_t gateFull = gateResult.generations[1].simulations;
    EXPECT_EQ(baseFull, 8u);
    EXPECT_EQ(gateFull, 1u);
    EXPECT_GE(baseFull, 5 * gateFull);

    const auto& baseBest =
        baseResult.candidates[baseResult.bestId].candidate.genome;
    const auto& gateBest =
        gateResult.candidates[gateResult.bestId].candidate.genome;
    EXPECT_EQ(baseBest, gateBest);
    EXPECT_DOUBLE_EQ(gateResult.candidates[gateResult.bestId].fitness,
                     baseResult.candidates[baseResult.bestId].fitness);

    // The sampled rung's discounted fitness can never outrank the
    // full-fidelity winner.
    EXPECT_FALSE(
        gateResult.candidates[gateResult.bestId].candidate.budgetInsts &
        sweep::kSampledBudgetFlag);
}

} // namespace
} // namespace mrp::mrc

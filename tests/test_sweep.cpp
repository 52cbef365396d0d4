/**
 * @file
 * Tests for the sweep orchestration subsystem: genome encode/decode
 * and canonicalization, strategy determinism, the study's fitness
 * cache (logical and physical), crash-safe kill/resume, and the
 * genetic refinement's convergence against the greedy feature search.
 *
 * The simulation-backed tests use the differentiating tiny corpus
 * (drift.slow + gups.fit at a 128KB LLC with threshold search
 * enabled); at the default 2MB LLC the short synthetic traces are
 * cold-miss dominated and every candidate scores the same, which
 * would make cache/convergence assertions vacuous.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "search/feature_search.hpp"
#include "sweep/study.hpp"
#include "util/fault_injection.hpp"
#include "util/json_reader.hpp"

namespace mrp::sweep {
namespace {

// Per-slot gene order (the SearchSpace contract): enabled, kind,
// assoc, begin, end, depth, xorPc.
constexpr std::size_t kEnabled = 0;
constexpr std::size_t kKind = 1;
constexpr std::size_t kAssoc = 2;
constexpr std::size_t kBegin = 3;
constexpr std::size_t kEnd = 4;
constexpr std::size_t kDepth = 5;
constexpr std::size_t kXorPc = 6;

SearchSpace
tinySpace(unsigned slots)
{
    SearchSpace space;
    space.featureSlots = slots;
    space.searchThresholds = true;
    return space;
}

/** The {drift.slow, gups.fit} corpus at a 128KB LLC, where feature
 * and threshold choices actually move MPKI. */
std::shared_ptr<CorpusEvaluator>
tinyCorpus(std::vector<unsigned> workloads, InstCount insts)
{
    CorpusConfig cc;
    cc.workloads = std::move(workloads);
    cc.fullInstructions = insts;
    cc.sim.hierarchy.llcBytes = 128 * 1024;
    return std::make_shared<CorpusEvaluator>(cc);
}

/** Deterministic stand-in fitness for driving strategies without a
 * simulator. */
double
synthFitness(const Genome& g)
{
    double f = 0.0;
    for (std::size_t i = 0; i < g.size(); ++i)
        f += static_cast<double>(g[i]) *
             static_cast<double>(i % 5 + 1);
    return f;
}

/** Run a strategy's full ask/tell loop against synthFitness. */
std::vector<std::vector<Candidate>>
driveSynthetic(Strategy& strategy)
{
    std::vector<std::vector<Candidate>> generations;
    for (int guard = 0; guard < 100; ++guard) {
        auto cands = strategy.ask();
        if (cands.empty())
            break;
        std::vector<Evaluated> results;
        results.reserve(cands.size());
        for (const auto& c : cands)
            results.push_back(
                {c, synthFitness(c.genome), 0.0, true});
        strategy.tell(results);
        generations.push_back(std::move(cands));
    }
    return generations;
}

bool
sameCandidates(const std::vector<std::vector<Candidate>>& a,
               const std::vector<std::vector<Candidate>>& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t g = 0; g < a.size(); ++g) {
        if (a[g].size() != b[g].size())
            return false;
        for (std::size_t i = 0; i < a[g].size(); ++i)
            if (a[g][i].genome != b[g][i].genome ||
                a[g][i].budgetInsts != b[g][i].budgetInsts)
                return false;
    }
    return true;
}

TEST(SearchSpaceTest, EncodeDecodeRoundTrips)
{
    SearchSpace space;
    space.searchThresholds = true;
    space.searchSampler = true;
    const core::MpppbConfig cfg = core::singleThreadMpppbConfig();
    space.samplerSets = {cfg.predictor.sampledSetsPerCore,
                         2 * cfg.predictor.sampledSetsPerCore};

    const Genome g = space.encode(cfg);
    EXPECT_EQ(g.size(), space.genomeSize());
    EXPECT_EQ(space.clamp(g), g); // canonical

    const core::MpppbConfig back = space.decode(g);
    EXPECT_EQ(back.predictor.features, cfg.predictor.features);
    EXPECT_EQ(back.thresholds.tauBypass, cfg.thresholds.tauBypass);
    EXPECT_EQ(back.thresholds.tau, cfg.thresholds.tau);
    EXPECT_EQ(back.thresholds.tauNoPromote,
              cfg.thresholds.tauNoPromote);
    EXPECT_EQ(back.predictor.sampledSetsPerCore,
              cfg.predictor.sampledSetsPerCore);

    EXPECT_EQ(space.encode(back), g);
}

TEST(SearchSpaceTest, ClampBoundsAndCanonicalizes)
{
    const SearchSpace space = tinySpace(3);
    const auto specs = space.genes();

    // Wildly out-of-bounds values land inside every gene's bounds and
    // clamp is a fixed point (canonical genomes stay put).
    Genome wild(space.genomeSize(), 0);
    for (std::size_t i = 0; i < wild.size(); ++i)
        wild[i] = (i % 2) ? 100000 : -100000;
    const Genome c = space.clamp(wild);
    for (std::size_t i = 0; i < c.size(); ++i) {
        EXPECT_GE(c[i], specs[i].min) << specs[i].name;
        EXPECT_LE(c[i], specs[i].max) << specs[i].name;
    }
    EXPECT_EQ(space.clamp(c), c);

    // begin > end swaps rather than producing an invalid feature.
    Genome swapped(space.genomeSize(), 0);
    swapped[kEnabled] = 1; // slot 0: pc feature
    swapped[kBegin] = 9;
    swapped[kEnd] = 3;
    const Genome s = space.clamp(swapped);
    EXPECT_LE(s[kBegin], s[kEnd]);

    // An all-disabled genome is repaired to enable one feature, so
    // every canonical genome decodes.
    const Genome none = space.clamp(Genome(space.genomeSize(), 0));
    const core::MpppbConfig cfg = space.decode(none);
    EXPECT_GE(cfg.predictor.features.size(), 1u);

    // The placement ladder stays sorted descending.
    EXPECT_GE(cfg.thresholds.tau[0], cfg.thresholds.tau[1]);
    EXPECT_GE(cfg.thresholds.tau[1], cfg.thresholds.tau[2]);

    // Dormant genes are canonicalized away: two genomes differing
    // only inside a disabled slot are the same candidate.
    Genome a(space.genomeSize(), 0);
    Genome b = a;
    b[kGenesPerSlot + kAssoc] = 5; // slot 1 stays disabled
    b[kGenesPerSlot + kBegin] = 4;
    EXPECT_EQ(space.genomeKey(space.clamp(a)),
              space.genomeKey(space.clamp(b)));
}

TEST(SearchSpaceTest, GenomeJsonRoundTrips)
{
    const SearchSpace space = tinySpace(4);
    Rng rng(123);
    const Genome g = space.randomGenome(rng);
    const auto v = json::parseJson(space.genomeJson(g), "genome");
    EXPECT_EQ(space.genomeFromJson(v), g);
}

TEST(StrategyTest, GeneticReplaysIdenticallyUnderSameSeed)
{
    const SearchSpace space = tinySpace(3);
    GeneticStrategy::Config gc;
    gc.population = 6;
    gc.generations = 4;
    gc.elites = 1;

    GeneticStrategy s1(space, gc, 7);
    GeneticStrategy s2(space, gc, 7);
    const auto g1 = driveSynthetic(s1);
    const auto g2 = driveSynthetic(s2);
    ASSERT_EQ(g1.size(), 4u);
    EXPECT_TRUE(sameCandidates(g1, g2));

    GeneticStrategy s3(space, gc, 8);
    const auto g3 = driveSynthetic(s3);
    EXPECT_FALSE(sameCandidates(g1, g3));
}

TEST(StrategyTest, GeneticElitismKeepsBestMonotone)
{
    const SearchSpace space = tinySpace(3);
    GeneticStrategy::Config gc;
    gc.population = 8;
    gc.generations = 6;
    gc.elites = 2;

    GeneticStrategy strategy(space, gc, 99);
    const auto generations = driveSynthetic(strategy);
    ASSERT_EQ(generations.size(), 6u);
    double best = -1e300;
    for (const auto& gen : generations) {
        double gen_best = -1e300;
        for (const auto& c : gen)
            gen_best = std::max(gen_best, synthFitness(c.genome));
        EXPECT_GE(gen_best, best);
        best = std::max(best, gen_best);
    }
}

TEST(StrategyTest, HalvingPromotesTopSurvivorsUpTheBudgetLadder)
{
    const SearchSpace space = tinySpace(3);
    HalvingStrategy::Config hc;
    hc.initial = 8;
    hc.eta = 2;
    hc.rungs = 3;
    hc.fullInstructions = 800;

    HalvingStrategy strategy(space, hc, 21);
    const auto rungs = driveSynthetic(strategy);
    ASSERT_EQ(rungs.size(), 3u);
    ASSERT_EQ(rungs[0].size(), 8u);
    ASSERT_EQ(rungs[1].size(), 4u);
    ASSERT_EQ(rungs[2].size(), 2u);
    EXPECT_EQ(rungs[0][0].budgetInsts, 200u); // full / eta^2
    EXPECT_EQ(rungs[1][0].budgetInsts, 400u); // full / eta
    EXPECT_EQ(rungs[2][0].budgetInsts, 0u);   // full length

    // Rung 1 holds exactly the top half of rung 0 by fitness, in
    // rank order (ties by ask order).
    std::vector<std::size_t> order(rungs[0].size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return synthFitness(rungs[0][a].genome) >
                                synthFitness(rungs[0][b].genome);
                     });
    for (std::size_t i = 0; i < rungs[1].size(); ++i)
        EXPECT_EQ(rungs[1][i].genome, rungs[0][order[i]].genome);
}

TEST(StudyTest, GridDuplicatesSimulateExactlyOnce)
{
    SearchSpace space = tinySpace(2);
    const std::size_t tau_base = 2 * kGenesPerSlot;

    // tau1/tau2 axes {10,20} x {10,20}: (20,10) and (10,20)
    // canonicalize to the same descending ladder, so the 4-point grid
    // has 3 unique genomes.
    GridStrategy strategy(
        space, Genome(space.genomeSize(), 0),
        {{tau_base + 1, {10, 20}}, {tau_base + 2, {10, 20}}});

    auto evaluator = tinyCorpus({3}, 60000);
    CorpusMpkiObjective objective(
        evaluator, CorpusMpkiObjective::Aggregate::Mean);
    StudyConfig cfg;
    cfg.name = "grid-dupes";
    Study study(space, strategy, objective, cfg);

    // Odometer: an armed-but-never-firing fault site counts how many
    // runs the runner physically executes.
    fault::Spec spec;
    spec.kind = fault::Kind::IoError;
    spec.firstHit = 1000000000;
    fault::arm("runner.execute", spec);
    const StudyResult result = study.run();
    const std::uint64_t executed = fault::hits("runner.execute");
    fault::disarmAll();

    ASSERT_EQ(result.candidates.size(), 4u);
    ASSERT_EQ(result.generations.size(), 1u);
    EXPECT_EQ(result.generations[0].evaluations, 4u);
    EXPECT_EQ(result.generations[0].simulations, 3u);
    EXPECT_EQ(result.generations[0].cacheHits, 1u);
    // One workload per candidate: 3 unique genomes -> 3 runs, ever.
    EXPECT_EQ(executed, 3u);

    // The duplicate pair really is the same canonical genome, flagged
    // cached on its second appearance, with identical fitness.
    std::size_t dupe = 0;
    for (std::size_t i = 1; i < result.candidates.size(); ++i)
        if (result.candidates[i].cached)
            dupe = i;
    ASSERT_NE(dupe, 0u);
    bool found_original = false;
    for (std::size_t i = 0; i < dupe; ++i)
        if (result.candidates[i].candidate.genome ==
            result.candidates[dupe].candidate.genome) {
            found_original = true;
            EXPECT_FALSE(result.candidates[i].cached);
            EXPECT_EQ(result.candidates[i].fitness,
                      result.candidates[dupe].fitness);
        }
    EXPECT_TRUE(found_original);

    // The run counts are in the report, as the acceptance check reads
    // them.
    const std::string report = study.reportJson(result);
    EXPECT_NE(report.find("\"simulations\": 3"), std::string::npos);
    EXPECT_NE(report.find("\"cacheHits\": 1"), std::string::npos);
}

TEST(StudyTest, FingerprintTextIsPinned)
{
    // The CI sweep-smoke study (mrp_sweep_cli --strategy genetic
    // --slots 4 --search-thresholds --seed 7). The fingerprint tags
    // every --journal entry and the report's "fingerprint" field, so
    // a change here makes every existing study journal unresumable.
    const SearchSpace space = tinySpace(4);
    GeneticStrategy strategy(space, GeneticStrategy::Config{}, 7);
    CorpusMpkiObjective objective(
        tinyCorpus({3, 4}, 120000),
        CorpusMpkiObjective::Aggregate::Geomean);
    StudyConfig cfg;
    cfg.seed = 7;
    const Study study(space, strategy, objective, cfg);
    EXPECT_EQ(study.fingerprint(), "80db95f8");
}

TEST(StudyTest, KillAndResumeReportsAreByteIdentical)
{
    const SearchSpace space = tinySpace(3);
    auto evaluator = tinyCorpus({3, 4}, 60000);
    CorpusMpkiObjective objective(
        evaluator, CorpusMpkiObjective::Aggregate::Mean);

    GeneticStrategy::Config gc;
    gc.population = 4;
    gc.generations = 2;
    gc.tournament = 2;
    gc.elites = 1;
    const std::uint64_t strategy_seed = 5;

    const auto report_for = [&](unsigned jobs,
                                const std::string& journal,
                                bool resume) {
        GeneticStrategy strategy(space, gc, strategy_seed);
        StudyConfig cfg;
        cfg.name = "resume-test";
        cfg.seed = 11;
        cfg.jobs = jobs;
        cfg.journalPath = journal;
        cfg.resume = resume;
        Study study(space, strategy, objective, cfg);
        return study.reportJson(study.run());
    };

    // The undisturbed reference, identical at any worker count.
    const std::string reference = report_for(1, "", false);
    EXPECT_EQ(report_for(2, "", false), reference);

    for (const unsigned jobs : {1u, 2u}) {
        const std::string journal =
            std::string(::testing::TempDir()) +
            "test_sweep_resume_" + std::to_string(jobs) + ".ckpt";
        const std::string raw = journal + ".runs";
        std::remove(journal.c_str());
        std::remove(raw.c_str());

        // Kill the study mid-generation-0: raw-run journal appends
        // start failing at the 5th write (of 8), so part of the
        // generation is durable and the rest is lost.
        {
            GeneticStrategy strategy(space, gc, strategy_seed);
            StudyConfig cfg;
            cfg.name = "resume-test";
            cfg.seed = 11;
            cfg.jobs = jobs;
            cfg.journalPath = journal;
            Study study(space, strategy, objective, cfg);
            fault::Spec spec;
            spec.kind = fault::Kind::IoError;
            spec.firstHit = 5;
            spec.maxFires = -1;
            fault::arm("runner.journal.write", spec);
            EXPECT_THROW(study.run(), FatalError);
            fault::disarmAll();
        }

        // Resume replays the journaled work and finishes; the report
        // is byte-identical to the never-killed study's.
        fault::Spec odo;
        odo.kind = fault::Kind::IoError;
        odo.firstHit = 1000000000;
        fault::arm("runner.execute", odo);
        EXPECT_EQ(report_for(jobs, journal, true), reference);
        const std::uint64_t resumed_runs =
            fault::hits("runner.execute");
        fault::disarmAll();

        // The restored raw runs were not re-simulated: a full study
        // is 8 + 4 runs (4 candidates x 2 workloads, then 3 fresh
        // offspring + 1 elite cache hit), and at least the 4 journaled
        // runs came back from disk.
        EXPECT_LT(resumed_runs, 12u);

        std::remove(journal.c_str());
        std::remove(raw.c_str());
    }
}

TEST(StudyTest, GeneticRefinementNeverLosesToGreedySeed)
{
    // The greedy §5.1 search (random seeding + hill climb), on the
    // shared corpus evaluator.
    search::SearchConfig scfg;
    scfg.featuresPerSet = 4;
    scfg.workloads = {3, 4};
    scfg.traceInstructions = 120000;
    scfg.sim.hierarchy.llcBytes = 128 * 1024;
    scfg.baseConfig = core::singleThreadMpppbConfig();
    search::FeatureSetEvaluator eval(scfg);

    const auto seeds = search::randomSearch(eval, scfg, 2, 0xBEEF);
    const auto start = *std::min_element(
        seeds.begin(), seeds.end(),
        [](const search::Candidate& a, const search::Candidate& b) {
            return a.averageMpki < b.averageMpki;
        });
    const auto greedy =
        search::hillClimb(eval, scfg, start, 2, 0xCAFE);

    // Encode the greedy winner (its features plus the base
    // thresholds) as the genetic seed, via clamp so the raw gene
    // vector canonicalizes.
    SearchSpace space;
    space.featureSlots = scfg.featuresPerSet;
    space.searchThresholds = true;
    space.base = scfg.baseConfig;
    Genome raw(space.genomeSize(), 0);
    for (std::size_t s = 0; s < greedy.features.size(); ++s) {
        int* slot = raw.data() + s * kGenesPerSlot;
        const auto& f = greedy.features[s];
        slot[kEnabled] = 1;
        slot[kKind] = static_cast<int>(f.kind);
        slot[kAssoc] = static_cast<int>(f.assoc);
        slot[kBegin] = static_cast<int>(f.begin);
        slot[kEnd] = static_cast<int>(f.end);
        slot[kDepth] = static_cast<int>(f.depth);
        slot[kXorPc] = f.xorPc ? 1 : 0;
    }
    const std::size_t pos = space.featureSlots * kGenesPerSlot;
    raw[pos + 0] = scfg.baseConfig.thresholds.tauBypass;
    raw[pos + 1] = scfg.baseConfig.thresholds.tau[0];
    raw[pos + 2] = scfg.baseConfig.thresholds.tau[1];
    raw[pos + 3] = scfg.baseConfig.thresholds.tau[2];
    raw[pos + 4] = scfg.baseConfig.thresholds.tauNoPromote;
    const Genome seed = space.clamp(raw);

    // The bar: the canonicalized greedy set's own corpus MPKI (what
    // the seed candidate evaluates to in generation 0).
    const double greedy_mpki =
        eval.averageMpki(space.decode(seed).predictor.features);

    CorpusMpkiObjective objective(
        eval.corpus(), CorpusMpkiObjective::Aggregate::Mean);
    GeneticStrategy::Config gc;
    gc.population = 8;
    gc.generations = 5;
    gc.seeds = {seed};
    GeneticStrategy strategy(space, gc, 0xABCD);
    StudyConfig cfg;
    cfg.name = "convergence";
    cfg.seed = 0xABCD;
    Study study(space, strategy, objective, cfg);
    const StudyResult result = study.run();

    ASSERT_TRUE(result.hasBest);
    EXPECT_LE(result.candidates[result.bestId].mpki,
              greedy_mpki + 1e-9);

    // Elitism: the per-generation best fitness never regresses, and
    // the re-asked elites come back from the fitness cache.
    ASSERT_EQ(result.generations.size(), 5u);
    for (std::size_t g = 1; g < result.generations.size(); ++g) {
        EXPECT_GE(result.generations[g].bestFitness,
                  result.generations[g - 1].bestFitness);
        EXPECT_GE(result.generations[g].cacheHits, 1u);
    }
}

TEST(CorpusFamilyTest, ZipfThetaMustBeAFiniteNonNegativeNumber)
{
    EXPECT_EQ(corpusFamilySpec("zipf", 20000, 1).displayName(), "zipf");
    const auto skewed = corpusFamilySpec("zipf:0.8", 20000, 1);
    EXPECT_EQ(skewed.displayName(), "zipf:0.8");
    EXPECT_EQ(skewed.instructions(), 20000u);
    for (const char* bad : {"zipf:", "zipf:abc", "zipf:0.5x", "zipf: 0.5",
                            "zipf:+0.5", "zipf:-0.1", "zipf:nan",
                            "zipf:inf", "zipf:1e999"}) {
        try {
            (void)corpusFamilySpec(bad, 20000, 1);
            FAIL() << "accepted '" << bad << "'";
        } catch (const FatalError& e) {
            EXPECT_EQ(e.code(), ErrorCode::Config) << bad;
            EXPECT_NE(std::string(e.what()).find(std::string("'") + bad +
                                                 "'"),
                      std::string::npos)
                << e.what();
        }
    }
    // Finite and non-negative, but not a valid skew: the generator
    // refuses it when the source opens.
    EXPECT_THROW((void)corpusFamilySpec("zipf:1.5", 20000, 1).open(),
                 FatalError);
}

} // namespace
} // namespace mrp::sweep

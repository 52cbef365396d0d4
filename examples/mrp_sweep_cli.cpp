/**
 * @file
 * Configuration-search driver: optimize MPPPB predictor configurations
 * over the synthetic training corpus with any of the sweep strategies
 * (genetic, random, grid, successive halving), producing the
 * deterministic study report.
 *
 * Flags: see usage() below; --help (any unknown flag) prints them.
 *
 * --corpus replaces the suite-index training corpus with streaming
 * generator families ("zipf", "zipf:THETA", "blkio", "phase"): every
 * candidate evaluation streams its workloads chunk by chunk instead of
 * materializing them, so corpus length is bounded by disk-free math
 * only, and successive-halving budget rungs regenerate each family at
 * the rung length (TraceSpec::withInstructions). --decode-ahead
 * overlaps generation/decoding with simulation; like every delivery
 * knob it cannot change the report.
 *
 * The report (stdout, or --out FILE) is a pure function of the search
 * space, strategy, seed, and objective — no wall-clock fields, no
 * dependence on --jobs. --journal makes the study crash-safe: every
 * evaluated candidate is appended to an fsync'd checkpoint journal and
 * the in-flight generation's raw runs stream into FILE.runs, so a
 * killed sweep rerun with --resume replays journaled fitnesses
 * (completed work costs zero simulations) and emits a byte-identical
 * report. A fitness cache keyed by canonical genome guarantees
 * duplicate candidates never re-simulate. --seed drives the strategy's
 * RNG and is stamped into every run and the report, so a study is
 * replayable from its report alone.
 *
 * --prof-out FILE wraps the study in a phase-timer Profiler and writes
 * a BENCH_*.json document (schema "mrp-bench-v1") with the
 * sweep.generation / sweep.ask / sweep.simulate / sweep.tell phase
 * tree and total simulated throughput.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cache/geometry.hpp"
#include "cache/hierarchy.hpp"
#include "mrc/engine.hpp"
#include "mrc/objective.hpp"
#include "mrc/profile.hpp"
#include "prof/export.hpp"
#include "runner/report.hpp"
#include "sweep/study.hpp"
#include "trace/spec.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace {

using namespace mrp;

/** Every option, at its default. */
struct SweepCliConfig
{
    std::string studyName = "mrp_sweep_cli";
    std::string strategyName = "genetic";
    std::string objectiveName = "geomean";
    std::string journalPath;
    std::string outPath;
    bool resume = false;
    unsigned generations = 5;
    unsigned population = 16;
    InstCount budgetInsts = 400000;
    std::vector<unsigned> workloads = {2,  7,  9,  12, 14,
                                       16, 18, 21, 25, 30};
    std::vector<std::string> corpusFamilies;
    bool decodeAhead = false;
    Addr llcKb = 2048;
    unsigned slots = 16;
    bool searchThresholds = false;
    bool searchSampler = false;
    std::uint64_t seed = 1;
    unsigned jobs = 0;
    // genetic knobs
    unsigned tournament = 3;
    double crossover = 0.9;
    double mutation = 0.08;
    unsigned elites = 2;
    // halving knobs
    unsigned initial = 16;
    unsigned eta = 2;
    unsigned rungs = 3;
    std::vector<sweep::GridAxis> gridAxes;
    // MRC engine knobs
    unsigned mrcRateLog2 = 0; //!< nonzero = SHARDS-sampled rung 0
    std::string mrcOutPath;   //!< write the corpus MrcProfile JSON
    std::string profOutPath;  //!< write the study's phase profile
};

int
usage()
{
    std::fputs(
        "usage: mrp_sweep_cli [--prof-out FILE]\n"
        "       [--strategy genetic|random|halving|grid]\n"
        "       [--generations N] [--population N] [--budget-insts N]\n"
        "       [--workloads I,J,...] [--corpus FAM[,FAM...]]\n"
        "       [--decode-ahead] [--llc-kb N] [--slots N]\n"
        "       [--search-thresholds] [--search-sampler]\n"
        "       [--objective geomean|mean] [--seed N] [--jobs N]\n"
        "       [--journal FILE] [--resume] [--out FILE] [--name NAME]\n"
        "       genetic: [--tournament N] [--crossover R]\n"
        "                [--mutation R] [--elites N]\n"
        "       halving: [--initial N] [--eta N] [--rungs N]\n"
        "                [--mrc-rung RATELOG2]\n"
        "       grid:    --grid GENE:V1,V2,...  (one axis each)\n"
        "       [--mrc-out FILE]  (corpus miss-ratio-curve profiles)\n",
        stderr);
    return 2;
}

/** Consume argv[i] (advancing i past any value); false means an
 * unknown flag. */
bool
parseArg(SweepCliConfig& c, int argc, char** argv, int& i)
{
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
        fatalIf(i + 1 >= argc, ErrorCode::Config,
                "missing value for " + arg);
        return argv[++i];
    };
    if (arg == "--name") {
        c.studyName = next();
    } else if (arg == "--strategy") {
        c.strategyName = next();
    } else if (arg == "--objective") {
        c.objectiveName = next();
    } else if (arg == "--generations") {
        c.generations =
            static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--population") {
        c.population =
            static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--budget-insts") {
        c.budgetInsts = std::strtoull(next(), nullptr, 10);
        fatalIf(c.budgetInsts == 0,
                "--budget-insts must be positive");
    } else if (arg == "--workloads") {
        c.workloads.clear();
        for (const auto& w : splitCommas(next()))
            c.workloads.push_back(static_cast<unsigned>(
                std::strtoul(w.c_str(), nullptr, 10)));
    } else if (arg == "--corpus") {
        c.corpusFamilies = splitCommas(next());
    } else if (arg == "--decode-ahead") {
        c.decodeAhead = true;
    } else if (arg == "--llc-kb") {
        c.llcKb = std::strtoull(next(), nullptr, 10);
        // Reject impossible geometries at the flag, not mid-study.
        const std::string why = cache::CacheGeometry::describeInvalid(
            c.llcKb * 1024, cache::HierarchyConfig{}.llcWays);
        fatalIf(!why.empty(), ErrorCode::Config,
                "--llc-kb " + std::to_string(c.llcKb) + ": " + why);
    } else if (arg == "--slots") {
        c.slots =
            static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--search-thresholds") {
        c.searchThresholds = true;
    } else if (arg == "--search-sampler") {
        c.searchSampler = true;
    } else if (arg == "--seed") {
        c.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--jobs") {
        c.jobs =
            static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--journal") {
        c.journalPath = next();
    } else if (arg == "--resume") {
        c.resume = true;
    } else if (arg == "--out") {
        c.outPath = next();
    } else if (arg == "--tournament") {
        c.tournament =
            static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--crossover") {
        c.crossover = std::atof(next());
    } else if (arg == "--mutation") {
        c.mutation = std::atof(next());
    } else if (arg == "--elites") {
        c.elites =
            static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--initial") {
        c.initial =
            static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--eta") {
        c.eta =
            static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--rungs") {
        c.rungs =
            static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--mrc-rung") {
        c.mrcRateLog2 =
            static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
        fatalIf(c.mrcRateLog2 == 0 || c.mrcRateLog2 >= 24,
                ErrorCode::Config,
                "--mrc-rung rate log2 must be in [1, 24)");
    } else if (arg == "--mrc-out") {
        c.mrcOutPath = next();
    } else if (arg == "--prof-out") {
        c.profOutPath = next();
    } else if (arg == "--grid") {
        // GENE:V1,V2,... — one axis of the cross product.
        const std::string spec = next();
        const auto colon = spec.find(':');
        fatalIf(colon == std::string::npos,
                "--grid expects GENE:V1,V2,...");
        sweep::GridAxis axis;
        axis.gene = std::strtoul(spec.c_str(), nullptr, 10);
        for (const auto& v : splitCommas(spec.substr(colon + 1)))
            axis.values.push_back(std::atoi(v.c_str()));
        c.gridAxes.push_back(std::move(axis));
    } else {
        return false;
    }
    return true;
}

/**
 * The assembled study ingredients. Heap-held so references between
 * them (strategy -> space, objective -> evaluator) stay valid for
 * the setup's lifetime.
 */
struct StudySetup
{
    sweep::SearchSpace space;
    std::shared_ptr<sweep::CorpusEvaluator> evaluator;
    std::unique_ptr<sweep::Objective> objective;
    std::unique_ptr<sweep::Strategy> strategy;
    sweep::StudyConfig studyConfig;
};

/** Build the study; throws FatalError(Config) on a bad combination,
 * returns null on a plain usage error (unknown strategy/objective
 * name). */
std::unique_ptr<StudySetup>
buildStudySetup(const SweepCliConfig& c)
{
    fatalIf(c.workloads.empty(), "--workloads list is empty");
    auto s = std::make_unique<StudySetup>();
    s->space.featureSlots = c.slots;
    s->space.searchThresholds = c.searchThresholds;
    s->space.searchSampler = c.searchSampler;

    sweep::CorpusConfig corpus;
    corpus.workloads = c.workloads;
    for (std::size_t f = 0; f < c.corpusFamilies.size(); ++f)
        corpus.corpus.push_back(sweep::corpusFamilySpec(
            c.corpusFamilies[f], c.budgetInsts, c.seed + f));
    corpus.fullInstructions = c.budgetInsts;
    corpus.sim.hierarchy.llcBytes = c.llcKb * 1024;
    corpus.jobs = c.jobs;
    corpus.openOptions.decodeAhead = c.decodeAhead;
    s->evaluator = std::make_shared<sweep::CorpusEvaluator>(corpus);
    if (c.objectiveName != "mean" && c.objectiveName != "geomean")
        return nullptr;
    const auto aggregate =
        c.objectiveName == "mean"
            ? sweep::CorpusMpkiObjective::Aggregate::Mean
            : sweep::CorpusMpkiObjective::Aggregate::Geomean;
    if (c.mrcRateLog2 > 0) {
        fatalIf(c.strategyName != "halving", ErrorCode::Config,
                "--mrc-rung needs --strategy halving (it flags the "
                "halving ladder's rung 0 for sampled evaluation)");
        s->objective = std::make_unique<mrc::SampledRungObjective>(
            s->evaluator, c.mrcRateLog2, aggregate);
    } else {
        s->objective = std::make_unique<sweep::CorpusMpkiObjective>(
            s->evaluator, aggregate);
    }

    if (c.strategyName == "genetic") {
        sweep::GeneticStrategy::Config gc;
        gc.generations = c.generations;
        gc.population = c.population;
        gc.tournament = c.tournament;
        gc.crossoverRate = c.crossover;
        gc.mutationRate = c.mutation;
        gc.elites = c.elites;
        // Start from the paper-default configuration so the search
        // can only improve on it (elitism keeps the incumbent alive).
        // A space with fewer slots than the paper's 16 features can't
        // hold the incumbent; those searches start purely random.
        if (s->space.base.predictor.features.size() <=
            s->space.featureSlots)
            gc.seeds.push_back(s->space.encode(s->space.base));
        s->strategy = std::make_unique<sweep::GeneticStrategy>(
            s->space, gc, c.seed);
    } else if (c.strategyName == "random") {
        s->strategy = std::make_unique<sweep::RandomStrategy>(
            s->space, c.generations, c.population, c.seed);
    } else if (c.strategyName == "halving") {
        sweep::HalvingStrategy::Config hc;
        hc.initial = c.initial;
        hc.eta = c.eta;
        hc.rungs = c.rungs;
        hc.fullInstructions = c.budgetInsts;
        hc.mrcRateLog2 = c.mrcRateLog2;
        s->strategy = std::make_unique<sweep::HalvingStrategy>(
            s->space, hc, c.seed);
    } else if (c.strategyName == "grid") {
        fatalIf(c.gridAxes.empty(),
                "--strategy grid needs at least one --grid axis");
        s->strategy = std::make_unique<sweep::GridStrategy>(
            s->space, s->space.encode(s->space.base), c.gridAxes);
    } else {
        return nullptr;
    }

    s->studyConfig.name = c.studyName;
    s->studyConfig.seed = c.seed;
    s->studyConfig.jobs = c.jobs;
    s->studyConfig.journalPath = c.journalPath;
    if (c.resume) {
        fatalIf(c.journalPath.empty(), "--resume requires --journal");
        std::ifstream probe(c.journalPath);
        if (!probe)
            std::fprintf(stderr,
                         "note: journal %s not found; starting cold\n",
                         c.journalPath.c_str());
        s->studyConfig.resume = true;
    }
    return s;
}

/**
 * --mrc-out: one pass of the MRC engine over the full-length corpus
 * (shards-adj, the sweep's --mrc-rung rate when set), written as the
 * deterministic mrp.mrc.v1 corpus document. The study's L1/L2 sizing
 * is reused so profiles and simulations see the same filtered stream.
 */
void
maybeWriteMrcProfiles(StudySetup& s, const SweepCliConfig& c)
{
    if (c.mrcOutPath.empty())
        return;
    mrc::MrcConfig mc;
    mc.hierarchy = s.evaluator->config().sim.hierarchy;
    if (c.mrcRateLog2 > 0)
        mc.rateLog2 = c.mrcRateLog2;
    const auto profiles =
        mrc::profileCorpus(s.evaluator->specs(0), mc, c.jobs,
                           s.evaluator->config().openOptions);
    runner::writeFile(c.mrcOutPath, mrc::corpusJson(profiles));
    std::fprintf(stderr, "wrote %s\n", c.mrcOutPath.c_str());
}

/** Write the deterministic report (stdout or --out) and the human
 * summary (stderr). Returns the process exit code. */
int
emitStudyReport(const sweep::Study& study,
                const sweep::StudyResult& result,
                const SweepCliConfig& c)
{
    const std::string report = study.reportJson(result);
    if (c.outPath.empty()) {
        std::fputs(report.c_str(), stdout);
    } else {
        runner::writeFile(c.outPath, report);
        std::fprintf(stderr, "wrote %s\n", c.outPath.c_str());
    }

    for (const auto& g : result.generations)
        std::fprintf(stderr,
                     "gen %u: %zu candidates (%zu simulated, %zu "
                     "cached), best fitness %.4f, mean %.4f\n",
                     g.generation, g.evaluations, g.simulations,
                     g.cacheHits, g.bestFitness, g.meanFitness);
    if (result.hasBest) {
        const auto& b = result.candidates[result.bestId];
        std::fprintf(
            stderr,
            "best: candidate %zu, corpus MPKI %.4f, %llu "
            "predictor bits\n",
            b.id, b.mpki,
            static_cast<unsigned long long>(b.predictorBits));
        return 0;
    }
    std::fprintf(stderr, "no successful candidate\n");
    return 1;
}

int
run(int argc, char** argv)
{
    SweepCliConfig cfg;
    for (int i = 1; i < argc; ++i)
        if (!parseArg(cfg, argc, argv, i))
            return usage();

    const auto setup = buildStudySetup(cfg);
    if (!setup)
        return usage();
    sweep::Study study(setup->space, *setup->strategy,
                       *setup->objective, setup->studyConfig);

    sweep::StudyResult result;
    if (!cfg.profOutPath.empty()) {
        prof::Profiler profiler;
        {
            const prof::Attach attach(profiler);
            result = study.run();
        }
        auto profile = profiler.finish();
        std::uint64_t insts = 0, accesses = 0;
        for (const auto& o : result.candidates) {
            if (o.cached)
                continue;
            insts += o.instructions;
            accesses += o.llcDemandAccesses;
        }
        profile.setThroughput(insts, accesses);
        prof::BenchRun br;
        br.label = "study/" + cfg.strategyName;
        br.benchmark = setup->studyConfig.name;
        br.policy = setup->strategy->name();
        br.profile = std::move(profile);
        runner::writeFile(cfg.profOutPath,
                          prof::benchJson("sweep", {br},
                                          prof::machineInfo(),
                                          prof::gitSha()));
        std::fprintf(stderr, "wrote %s\n", cfg.profOutPath.c_str());
    } else {
        result = study.run();
    }

    maybeWriteMrcProfiles(*setup, cfg);
    return emitStudyReport(study, result, cfg);
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return run(argc, argv);
    } catch (const FatalError& e) {
        std::fprintf(stderr, "mrp_sweep_cli: %s [%s]\n", e.what(),
                     errorCodeName(e.code()));
        return 2;
    }
}

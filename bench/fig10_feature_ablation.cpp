/**
 * @file
 * Reproduces Figure 10: the performance impact of removing each
 * feature of the Table 1(a) set, measured as normalized weighted
 * speedup on the multi-programmed workloads (the paper runs the
 * single-thread-developed set on the 900 mixes; individual features
 * contribute small deltas, and at least one removal *helps* —
 * insert(17,1) in the paper — showing the set is not minimal).
 *
 * The leave-one-out candidates are enumerated as one ListStrategy
 * study over a bench-local weighted-speedup objective, so every
 * configuration is simulated through the sweep subsystem's shared
 * evaluation path and the mixes of each candidate fan out on the
 * ExperimentRunner (--jobs N or MRP_BENCH_JOBS).
 */

#include "bench_util.hpp"
#include "core/feature_sets.hpp"
#include "core/mpppb.hpp"
#include "sweep/study.hpp"

namespace {

using namespace mrp;

/**
 * Geomean LRU-normalized weighted speedup of an MPPPB configuration
 * over a fixed mix list (higher is better; the paper's Fig. 10
 * metric). Traces are borrowed from the bench's pre-generated suite.
 */
class AblationObjective : public sweep::Objective
{
  public:
    AblationObjective(const std::vector<trace::Trace>& suite,
                      const std::vector<trace::Mix>& mixes,
                      const std::vector<double>& single_ipc,
                      std::vector<double> lru_ws,
                      sim::MultiCoreConfig cfg)
        : suite_(suite), mixes_(mixes), singleIpc_(single_ipc),
          lruWs_(std::move(lru_ws)), cfg_(std::move(cfg))
    {
    }

    std::string name() const override { return "fig10-norm-ws"; }

    std::vector<runner::RunRequest>
    requests(const core::MpppbConfig& mcfg,
             InstCount budget_insts) override
    {
        (void)budget_insts; // mixes have one fixed region length
        const auto factory = sim::makeMpppbFactory(mcfg);
        std::vector<runner::RunRequest> out;
        out.reserve(mixes_.size());
        for (const auto& mix : mixes_)
            out.push_back(runner::RunRequest::multiCore(
                bench::mixSpecs(suite_, mix),
                runner::PolicySpec::custom("MPPPB", factory), cfg_));
        return out;
    }

    sweep::Score
    score(const std::vector<const runner::RunResult*>& results) override
    {
        std::vector<double> ws;
        std::vector<double> mpkis;
        ws.reserve(results.size());
        for (std::size_t m = 0; m < results.size(); ++m) {
            double w = 0.0;
            for (unsigned c = 0; c < 4; ++c)
                w += results[m]->coreIpc[c] /
                     singleIpc_[mixes_[m].benchmarks[c]];
            ws.push_back(w / lruWs_[m]);
            mpkis.push_back(results[m]->mpki);
        }
        return {geomean(ws), mean(mpkis)};
    }

  private:
    const std::vector<trace::Trace>& suite_;
    const std::vector<trace::Mix>& mixes_;
    const std::vector<double>& singleIpc_;
    std::vector<double> lruWs_;
    sim::MultiCoreConfig cfg_;
};

} // namespace

int
main(int argc, char** argv)
{
    using namespace mrp;
    const unsigned n_mixes = bench::mixCount(8);
    const unsigned jobs = bench::jobsFromArgs(argc, argv);
    const auto suite = bench::makeSuiteRegions(bench::multiCoreInsts());
    const auto split = trace::makeMixSplit(16, n_mixes);
    const sim::MultiCoreConfig cfg;
    const auto single_ipc = bench::standaloneIpcTable(suite, cfg);

    // Figure 10 analyzes the Table 1(a) single-thread set running on
    // the multi-programmed workloads, over the SRRIP substrate.
    core::MpppbConfig base_cfg = core::multiCoreMpppbConfig();
    base_cfg.predictor.features = core::featureSetTable1A();

    std::vector<double> lru_ws;
    for (const auto& mix : split.test) {
        const bench::MixSources sources(suite, mix);
        std::vector<double> single(4, 0.0);
        for (unsigned c = 0; c < 4; ++c)
            single[c] = single_ipc[mix.benchmarks[c]];
        lru_ws.push_back(
            sim::runMultiCore(sources.ptrs(),
                              sim::PolicyRegistry::make("LRU"), cfg)
                .weightedSpeedup(single));
    }

    // The ablation candidates, encoded into a threshold-searching
    // space over the multi-core base (the scaled thresholds of each
    // leave-one-out variant are part of its genome).
    sweep::SearchSpace space;
    space.searchThresholds = true;
    space.base = base_cfg;

    std::vector<sweep::Candidate> candidates;
    candidates.push_back({space.encode(base_cfg), 0});
    for (std::size_t f = 0; f < base_cfg.predictor.features.size();
         ++f) {
        core::MpppbConfig mcfg = base_cfg;
        mcfg.predictor.features =
            core::without(base_cfg.predictor.features, f);
        // The confidence sum shrinks with the feature count; scale the
        // thresholds so the decision operating point stays comparable.
        const double scale =
            static_cast<double>(mcfg.predictor.features.size()) /
            static_cast<double>(base_cfg.predictor.features.size());
        mcfg.thresholds.tauBypass = static_cast<int>(
            mcfg.thresholds.tauBypass * scale);
        for (auto& t : mcfg.thresholds.tau)
            t = static_cast<int>(t * scale);
        mcfg.thresholds.tauNoPromote = static_cast<int>(
            mcfg.thresholds.tauNoPromote * scale);
        candidates.push_back({space.encode(mcfg), 0});
    }

    AblationObjective objective(suite, split.test, single_ipc,
                                std::move(lru_ws), cfg);
    sweep::ListStrategy strategy(std::move(candidates));
    sweep::StudyConfig scfg;
    scfg.name = "fig10-ablation";
    scfg.jobs = jobs;
    sweep::Study study(space, strategy, objective, scfg);
    const auto result = study.run();

    std::printf("# Figure 10: leave-one-feature-out over Table 1(a), "
                "4-core (%zu mixes)\n",
                split.test.size());
    fatalIf(result.candidates.empty() || !result.candidates[0].ok,
            "baseline candidate failed");
    const double original = result.candidates[0].fitness;
    std::printf("%-20s %20s %10s\n", "omitted", "norm.weighted.speedup",
                "delta");
    std::printf("%-20s %20.4f %10s\n", "(none)", original, "-");
    for (std::size_t f = 0; f < base_cfg.predictor.features.size();
         ++f) {
        const auto& o = result.candidates[f + 1];
        fatalIf(!o.ok, "ablation candidate failed: " + o.error);
        std::printf("%-20s %20.4f %+10.4f\n",
                    base_cfg.predictor.features[f].toString().c_str(),
                    o.fitness, o.fitness - original);
        std::fflush(stdout);
    }
    return 0;
}

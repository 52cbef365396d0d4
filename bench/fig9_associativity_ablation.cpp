/**
 * @file
 * Reproduces Figure 9: the impact of per-feature associativity.
 * For A = 1..18, every feature of the multi-core set has its
 * associativity forced to A; the original set keeps its per-feature
 * values. The paper finds uniform A=1 ≈ +6.4%, uniform A=18 ≈ +7.8%,
 * and the original variable associativities ≈ +8.0% on 900 mixes; the
 * target shape is a rising curve with the original on top.
 */

#include "bench_util.hpp"
#include "core/feature_sets.hpp"
#include "core/mpppb.hpp"

int
main()
{
    using namespace mrp;
    const unsigned n_mixes = bench::mixCount(8);
    const auto suite = bench::makeSuiteRegions(bench::multiCoreInsts());
    const auto split = trace::makeMixSplit(16, n_mixes);
    const sim::MultiCoreConfig cfg;
    const auto single_ipc = bench::standaloneIpcTable(suite, cfg);

    const auto base_cfg = core::multiCoreMpppbConfig();

    // Precompute per-mix LRU weighted speedups.
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

    auto evaluate = [&](const core::MpppbConfig& mcfg) {
        std::vector<double> ws;
        for (std::size_t m = 0; m < split.test.size(); ++m) {
            const bench::MixSources sources(suite, split.test[m]);
            std::vector<double> single(4, 0.0);
            for (unsigned c = 0; c < 4; ++c)
                single[c] = single_ipc[split.test[m].benchmarks[c]];
            const auto r = sim::runMultiCore(
                sources.ptrs(), sim::makeMpppbFactory(mcfg), cfg);
            ws.push_back(r.weightedSpeedup(single) / lru_ws[m]);
        }
        return geomean(ws);
    };

    std::printf("# Figure 9: uniform feature associativity vs the "
                "original per-feature values (%zu mixes)\n",
                split.test.size());
    std::printf("%-12s %20s\n", "assoc", "norm.weighted.speedup");
    for (unsigned a = 1; a <= core::kMaxFeatureAssoc; ++a) {
        core::MpppbConfig mcfg = base_cfg;
        mcfg.predictor.features =
            core::withUniformAssociativity(base_cfg.predictor.features, a);
        std::printf("%-12u %20.4f\n", a, evaluate(mcfg));
        std::fflush(stdout);
    }
    std::printf("%-12s %20.4f\n", "original", evaluate(base_cfg));
    return 0;
}

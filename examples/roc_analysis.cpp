/**
 * @file
 * Example: measure a reuse predictor's accuracy without applying its
 * decisions (the paper's §6.3 methodology), printing a compact ROC
 * table for any chosen predictor and workloads.
 *
 * Usage: roc_analysis [predictor] [instructions] [benchmarks...]
 *   predictor: "sdbp" | "perceptron" | "multiperspective" (default)
 */

#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <memory>

#include "core/feature_sets.hpp"
#include "core/predictor.hpp"
#include "policy/perceptron.hpp"
#include "policy/sdbp.hpp"
#include "sim/roc_probe.hpp"
#include "sim/single_core.hpp"
#include "trace/source.hpp"
#include "trace/workloads.hpp"

int
main(int argc, char** argv)
{
    using namespace mrp;

    const std::string kind = argc > 1 ? argv[1] : "multiperspective";
    const InstCount insts =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1000000;
    std::vector<unsigned> benches;
    for (int i = 3; i < argc; ++i)
        benches.push_back(static_cast<unsigned>(std::atoi(argv[i])));
    if (benches.empty())
        benches = {9, 14, 16, 32}; // scan, mixpc, field, thrash

    const sim::SingleCoreConfig cfg;
    const cache::CacheGeometry geom(cfg.hierarchy.llcBytes,
                                    cfg.hierarchy.llcWays);

    std::vector<std::unique_ptr<policy::ReusePredictor>> preds;
    if (kind == "sdbp") {
        preds.push_back(
            std::make_unique<policy::SdbpPredictor>(geom, 1));
    } else if (kind == "perceptron") {
        preds.push_back(
            std::make_unique<policy::PerceptronPredictor>(geom, 1));
    } else {
        core::MultiperspectiveConfig mcfg;
        mcfg.features = core::featureSetTable1A();
        preds.push_back(
            std::make_unique<core::MultiperspectivePredictor>(geom, 1,
                                                              mcfg));
    }
    sim::RocProbe probe(geom, std::move(preds));

    const auto lru = sim::PolicyRegistry::make("LRU");
    for (const unsigned b : benches) {
        const auto tr = trace::makeSuiteTrace(b, insts);
        trace::MaterializedTraceSource src(tr);
        sim::runSingleCore(src, lru, cfg, {&probe});
        std::printf("measured %s\n", tr.name().c_str());
    }

    std::printf("\npredictor: %s — %llu dead, %llu live outcomes\n",
                probe.predictor(0).name().c_str(),
                static_cast<unsigned long long>(probe.roc(0).deadCount()),
                static_cast<unsigned long long>(
                    probe.roc(0).liveCount()));
    std::printf("%10s %10s %10s\n", "threshold", "FPR", "TPR");
    const auto curve = probe.roc(0).curve();
    const std::size_t step = curve.size() > 24 ? curve.size() / 24 : 1;
    for (std::size_t i = 0; i < curve.size(); i += step)
        std::printf("%10d %10.4f %10.4f\n", curve[i].threshold,
                    curve[i].falsePositiveRate,
                    curve[i].truePositiveRate);
    std::printf("\nTPR at the paper's bypass operating band: "
                "%.4f @ FPR 0.25, %.4f @ FPR 0.31\n",
                probe.roc(0).tprAtFpr(0.25),
                probe.roc(0).tprAtFpr(0.31));
    return 0;
}

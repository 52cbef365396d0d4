/**
 * @file
 * Reproduces the paper's evaluation: Figs. 3-10, Table 3 and the §4.4
 * hardware budget, each printed to stdout in the order named.
 *
 *   paper_figures [--jobs N] [fig3 fig4 ... fig10 table3 overhead]
 *
 * With no figure named it prints all of them. The simulations of the
 * selected figures run as one deduplicated campaign (campaign.hpp):
 * Figs. 4 and 5 share their runs, as do Figs. 6 and 7, and Figs. 9
 * and 10 reuse Fig. 4's LRU baselines. Fig. 3 (two sweep studies, the
 * second seeded by the first) and Fig. 8 (one observer pass whose
 * predictors learn across benchmarks) keep their own paths.
 *
 * Scale knobs, each with per-figure defaults: MRP_BENCH_INSTS
 * (single-thread trace length), MRP_BENCH_MC_INSTS (4-core region
 * length), MRP_BENCH_MIXES (test mixes), MRP_BENCH_SETS and
 * MRP_BENCH_CLIMB (Fig. 3 random sets and refinement evaluations),
 * MRP_BENCH_JOBS (workers; `--jobs` wins). Defaults finish in under a
 * minute on 4 CPUs. The output is identical at any worker count.
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign.hpp"
#include "core/feature_sets.hpp"
#include "core/mpppb.hpp"
#include "policy/perceptron.hpp"
#include "policy/sdbp.hpp"
#include "sim/roc_probe.hpp"
#include "sim/single_core.hpp"
#include "sweep/study.hpp"
#include "trace/workloads.hpp"
#include "util/bitfield.hpp"
#include "util/math_util.hpp"

namespace {

using namespace mrp;
using bench::Campaign;
using bench::Knobs;
using runner::PolicySpec;

/** Prints one figure from the campaign's results. */
using View = std::function<void()>;

/** The test mixes of a 4-core figure (the first 16 mixes of the split
 * are reserved for training and never measured). */
std::vector<trace::Mix>
testMixes(const Knobs& k, unsigned fallback)
{
    return trace::makeMixSplit(
               16, static_cast<unsigned>(k.mixes.value_or(fallback)))
        .test;
}

InstCount
mcInsts(const Knobs& k)
{
    return k.mcInsts.value_or(800000);
}

/**
 * Two sweep studies on the shared corpus evaluator: a one-generation
 * list study of random 16-feature sets drawn the paper's way (every
 * slot populated via FeatureSpec::random; a plain RandomStrategy draw
 * would disable about half the slots and collapse the scatter), then
 * a genetic refinement seeded with the best random genome (elitism
 * makes it monotone, like the paper's hill-climb). The target is the
 * shape: random sets span from worse than LRU to about halfway to
 * MIN, and refinement adds a modest further gain.
 */
void
printFig3(const Knobs& k)
{
    const auto n_sets = static_cast<unsigned>(k.sets.value_or(48));
    const auto refine_evals = static_cast<unsigned>(k.climb.value_or(48));

    sweep::CorpusConfig corpus;
    corpus.workloads = {2, 7, 9, 12, 14, 16, 18, 21, 25, 30};
    corpus.fullInstructions = k.insts.value_or(600000);
    corpus.jobs = k.jobs;
    const auto evaluator =
        std::make_shared<sweep::CorpusEvaluator>(corpus);
    const double lru = mean(evaluator->policyMpkis("LRU"));
    const double min = mean(evaluator->policyMpkis("MIN"));

    sweep::SearchSpace space; // 16 feature slots, paper-default base
    sweep::CorpusMpkiObjective objective(
        evaluator, sweep::CorpusMpkiObjective::Aggregate::Mean);

    Rng rng(0xF16);
    std::vector<sweep::Candidate> random_sets;
    random_sets.reserve(n_sets);
    for (unsigned i = 0; i < n_sets; ++i) {
        core::MpppbConfig mcfg = space.base;
        mcfg.predictor.features.clear();
        for (unsigned f = 0; f < space.featureSlots; ++f)
            mcfg.predictor.features.push_back(
                core::FeatureSpec::random(rng));
        random_sets.push_back({space.encodeClamped(mcfg), 0});
    }
    sweep::ListStrategy random_strategy(std::move(random_sets));
    sweep::StudyConfig rcfg;
    rcfg.name = "fig3-random";
    rcfg.seed = 0xF16;
    rcfg.jobs = k.jobs;
    sweep::Study random_study(space, random_strategy, objective, rcfg);
    const auto random_result = random_study.run();
    fatalIf(!random_result.hasBest, "random stage produced no result");
    const auto& seed_candidate =
        random_result.candidates[random_result.bestId];

    std::vector<double> scatter;
    for (const auto& o : random_result.candidates)
        if (o.ok)
            scatter.push_back(o.mpki);
    std::sort(scatter.begin(), scatter.end(), std::greater<double>());

    const unsigned population = 8;
    sweep::GeneticStrategy::Config gc;
    gc.population = population;
    gc.generations = std::max(1u, refine_evals / population);
    gc.seeds.push_back(seed_candidate.candidate.genome);
    sweep::GeneticStrategy genetic(space, gc, 0xC1B);
    sweep::StudyConfig gcfg;
    gcfg.name = "fig3-refine";
    gcfg.seed = 0xC1B;
    gcfg.jobs = k.jobs;
    sweep::Study refine_study(space, genetic, objective, gcfg);
    const auto refine_result = refine_study.run();
    fatalIf(!refine_result.hasBest, "refinement produced no result");
    const auto& refined = refine_result.candidates[refine_result.bestId];

    std::printf("# Figure 3: random feature sets sorted by MPKI "
                "(%u sets, %zu refinement evals)\n",
                n_sets, refine_result.candidates.size());
    std::printf("%-8s %12s %12s %12s %12s\n", "rank", "random", "LRU",
                "MIN", "refined");
    for (std::size_t i = 0; i < scatter.size(); ++i)
        std::printf("%-8zu %12.3f %12.3f %12.3f %12.3f\n", i,
                    scatter[i], lru, min, refined.mpki);

    std::printf("\n# LRU %.3f | best random %.3f | refined %.3f | "
                "MIN %.3f\n",
                lru, seed_candidate.mpki, refined.mpki, min);
    const auto best_cfg = space.decode(refined.candidate.genome);
    std::printf("# refined feature set:\n%s",
                core::formatFeatureSet(best_cfg.predictor.features)
                    .c_str());
}

const std::vector<std::string> kMixPolicies = {"LRU", "Perceptron",
                                               "Hawkeye", "MPPPB-MC"};

/**
 * One S-curve per column: each column sorted (@p descending or
 * ascending), one rank per row with @p precision decimals, then an
 * @p agg_name row of @p agg over each column.
 */
void
printSCurves(const std::vector<std::string>& names,
             std::vector<std::vector<double>>& cols, bool descending,
             int precision, const char* agg_name,
             double (*agg)(const std::vector<double>&))
{
    std::printf("%-8s", "rank");
    for (const auto& name : names)
        std::printf(" %12s", name.c_str());
    std::printf("\n");
    for (auto& col : cols)
        if (descending)
            std::sort(col.begin(), col.end(), std::greater<double>());
        else
            std::sort(col.begin(), col.end());
    for (std::size_t i = 0; i < cols[0].size(); ++i) {
        std::printf("%-8zu", i);
        for (const auto& col : cols)
            std::printf(" %12.*f", precision, col[i]);
        std::printf("\n");
    }
    std::printf("%-8s", agg_name);
    for (const auto& col : cols)
        std::printf(" %12.*f", precision, agg(col));
    std::printf("\n");
}

/** Run ids [policy][mix] of kMixPolicies over the 4-core test mixes. */
std::vector<std::vector<std::size_t>>
addMixPolicies(Campaign& c, const std::vector<trace::Mix>& mixes,
               InstCount insts)
{
    std::vector<std::vector<std::size_t>> ids;
    for (const auto& p : kMixPolicies)
        ids.push_back(c.addMixes(mixes, insts, PolicySpec::byName(p)));
    return ids;
}

/**
 * Fig. 4: normalized weighted speedup over LRU for Perceptron,
 * Hawkeye and MPPPB (SRRIP substrate, 8MB shared LLC) as ascending
 * S-curves plus geomeans (paper: +5.8%, +5.2%, +8.3%).
 */
View
planFig4(Campaign& c, const Knobs& k)
{
    const auto mixes = testMixes(k, 32);
    const auto ids = addMixPolicies(c, mixes, mcInsts(k));
    c.addStandaloneIpc(mixes, mcInsts(k));
    return [&c, mixes, ids, insts = mcInsts(k)] {
        const std::size_t n = mixes.size();
        std::vector<std::vector<double>> ws(kMixPolicies.size() - 1);
        for (std::size_t p = 0; p < ws.size(); ++p)
            for (std::size_t m = 0; m < n; ++m)
                ws[p].push_back(
                    c.weightedSpeedup(ids[p + 1][m], mixes[m], insts) /
                    c.weightedSpeedup(ids[0][m], mixes[m], insts));

        std::printf("# Figure 4: normalized weighted speedup over LRU, "
                    "4-core, 8MB LLC, %zu test mixes\n",
                    n);
        printSCurves({kMixPolicies.begin() + 1, kMixPolicies.end()}, ws,
                     false, 4, "geomean", geomean);

        // The paper also reports how many mixes fall below LRU
        // (Hawkeye 18, Perceptron 201, MPPPB 115 of 900).
        std::printf("\n# mixes below LRU:");
        for (std::size_t p = 0; p < ws.size(); ++p) {
            const auto below =
                std::count_if(ws[p].begin(), ws[p].end(),
                              [](double v) { return v < 1.0; });
            std::printf(" %s=%ld", kMixPolicies[p + 1].c_str(),
                        static_cast<long>(below));
        }
        std::printf("\n");
    };
}

/**
 * Fig. 5: LLC demand MPKI of LRU, Perceptron, Hawkeye and MPPPB as
 * worst-to-best S-curves plus means (paper: 14.1 > 12.49 > 11.72 >
 * 10.97).
 */
View
planFig5(Campaign& c, const Knobs& k)
{
    const auto mixes = testMixes(k, 32);
    const auto ids = addMixPolicies(c, mixes, mcInsts(k));
    return [&c, n = mixes.size(), ids] {
        std::vector<std::vector<double>> mpki(ids.size());
        for (std::size_t p = 0; p < ids.size(); ++p)
            for (const auto id : ids[p])
                mpki[p].push_back(c[id].mpki);

        std::printf("# Figure 5: LLC demand MPKI, 4-core, 8MB LLC, %zu "
                    "test mixes (sorted descending per policy)\n",
                    n);
        printSCurves(kMixPolicies, mpki, true, 3, "mean", mean);
    };
}

const std::vector<std::string> kSuitePolicies = {
    "LRU", "Hawkeye", "Perceptron", "MPPPB", "MIN"};

/** Run ids [benchmark][policy] of kSuitePolicies over the suite. */
std::vector<std::vector<std::size_t>>
addSuitePolicies(Campaign& c, const Knobs& k)
{
    const InstCount insts = k.insts.value_or(2500000);
    std::vector<std::vector<std::size_t>> ids(trace::suiteSize());
    for (unsigned b = 0; b < trace::suiteSize(); ++b)
        for (const auto& p : kSuitePolicies)
            ids[b].push_back(c.add(runner::RunRequest::singleCore(
                c.suite(b, insts), PolicySpec::byName(p))));
    return ids;
}

/**
 * Fig. 6: speedup over LRU per benchmark, sorted by MPPPB's, with
 * geomeans (paper: Hawkeye 5.1%, Perceptron 6.3%, MPPPB 9.0%, MIN
 * 13.6%; on a synthetic substrate the ordering and MPPPB's ~2/3 share
 * of MIN's headroom are the targets).
 */
View
planFig6(Campaign& c, const Knobs& k)
{
    return [&c, ids = addSuitePolicies(c, k)] {
        struct Row
        {
            std::string benchmark;
            double hawkeye, perceptron, mpppb, min;
        };
        std::vector<Row> rows;
        for (const auto& b : ids) {
            const double lru = c[b[0]].ipc;
            rows.push_back({c[b[0]].benchmark, c[b[1]].ipc / lru,
                            c[b[2]].ipc / lru, c[b[3]].ipc / lru,
                            c[b[4]].ipc / lru});
        }
        std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
            return a.mpppb < b.mpppb;
        });

        std::printf(
            "# Figure 6: speedup over LRU, single-thread, 2MB LLC\n");
        std::printf("%-16s %10s %10s %10s %10s\n", "benchmark",
                    "Hawkeye", "Perceptron", "MPPPB", "MIN");
        std::vector<double> gh, gp, gm, gmin;
        for (const auto& r : rows) {
            std::printf("%-16s %10.3f %10.3f %10.3f %10.3f\n",
                        r.benchmark.c_str(), r.hawkeye, r.perceptron,
                        r.mpppb, r.min);
            gh.push_back(r.hawkeye);
            gp.push_back(r.perceptron);
            gm.push_back(r.mpppb);
            gmin.push_back(r.min);
        }
        std::printf("%-16s %10.3f %10.3f %10.3f %10.3f\n", "geomean",
                    geomean(gh), geomean(gp), geomean(gm), geomean(gmin));

        unsigned mpppb_best = 0, above_lru = 0;
        double worst = 1e9;
        for (const auto& r : rows) {
            if (r.mpppb >= r.hawkeye && r.mpppb >= r.perceptron)
                ++mpppb_best;
            if (r.mpppb > 1.0)
                ++above_lru;
            worst = std::min(worst, r.mpppb);
        }
        std::printf("\n# MPPPB best-or-tied of realistic policies on "
                    "%u/%u benchmarks; above LRU on %u; worst case "
                    "%.3f of LRU\n",
                    mpppb_best, trace::suiteSize(), above_lru, worst);
        std::printf("# MPPPB share of MIN headroom: %.2f (paper: 0.66)\n",
                    (geomean(gm) - 1.0) / (geomean(gmin) - 1.0));
    };
}

/**
 * Fig. 7: LLC demand MPKI per benchmark (paper means: LRU > Hawkeye
 * 3.8 > Perceptron 3.7 > MPPPB 3.5 > MIN; the synthetic suite is more
 * memory-intensive, so the ordering is the target).
 */
View
planFig7(Campaign& c, const Knobs& k)
{
    return [&c, ids = addSuitePolicies(c, k)] {
        std::printf(
            "# Figure 7: LLC demand MPKI, single-thread, 2MB LLC\n");
        std::printf("%-16s", "benchmark");
        for (const auto& p : kSuitePolicies)
            std::printf(" %10s", p.c_str());
        std::printf("\n");

        std::vector<std::vector<double>> mpkis(kSuitePolicies.size());
        for (const auto& b : ids) {
            std::printf("%-16s", c[b[0]].benchmark.c_str());
            for (std::size_t p = 0; p < b.size(); ++p) {
                mpkis[p].push_back(c[b[p]].mpki);
                std::printf(" %10.2f", c[b[p]].mpki);
            }
            std::printf("\n");
        }
        std::printf("%-16s", "arith.mean");
        for (const auto& col : mpkis)
            std::printf(" %10.2f", mean(col));
        std::printf("\n");
    };
}

/**
 * SDBP, Perceptron and the multiperspective predictor run in
 * measurement-only mode against an LRU LLC, their confidences
 * resolved against reuse-before-eviction. One probe walks the suite
 * serially, so the predictors carry what they learned from one
 * benchmark to the next and the pooled curves average the suite. In
 * the bypass-relevant FPR band (25%..31%) multiperspective should sit
 * above both prior predictors.
 */
void
printFig8(const Knobs& k)
{
    const InstCount insts = k.insts.value_or(2000000);
    const sim::SingleCoreConfig scfg;
    const cache::CacheGeometry geom(scfg.hierarchy.llcBytes,
                                    scfg.hierarchy.llcWays);

    std::vector<std::unique_ptr<policy::ReusePredictor>> preds;
    core::MultiperspectiveConfig mcfg;
    mcfg.features = core::featureSetTable1A();
    preds.push_back(std::make_unique<policy::SdbpPredictor>(geom, 1));
    preds.push_back(std::make_unique<policy::PerceptronPredictor>(geom, 1));
    preds.push_back(
        std::make_unique<core::MultiperspectivePredictor>(geom, 1, mcfg));
    sim::RocProbe probe(geom, std::move(preds));
    const char* names[3] = {"SDBP", "Perceptron", "Multiperspective"};

    const auto lru = sim::PolicyRegistry::make("LRU");
    for (unsigned b = 0; b < trace::suiteSize(); ++b) {
        const auto tr = trace::makeSuiteTrace(b, insts);
        trace::MaterializedTraceSource src(tr);
        sim::runSingleCore(src, lru, scfg, {&probe});
        std::fprintf(stderr, "# measured %s\n", tr.name().c_str());
    }

    std::printf("# Figure 8: ROC curves (pooled over %u benchmarks)\n",
                trace::suiteSize());
    std::printf("# %-18s %12s %12s %12s\n", "predictor", "threshold",
                "FPR", "TPR");
    for (std::size_t p = 0; p < probe.predictorCount(); ++p) {
        const auto curve = probe.roc(p).curve();
        // Thin the curve to ~64 printed points.
        const std::size_t step = curve.size() > 64 ? curve.size() / 64 : 1;
        for (std::size_t i = 0; i < curve.size(); i += step)
            std::printf("%-20s %12d %12.4f %12.4f\n", names[p],
                        curve[i].threshold, curve[i].falsePositiveRate,
                        curve[i].truePositiveRate);
    }

    std::printf("\n# TPR at bypass-relevant FPR operating points\n");
    std::printf("# %-18s", "predictor");
    const double fprs[] = {0.20, 0.25, 0.28, 0.31, 0.40};
    for (const double f : fprs)
        std::printf(" TPR@%.2f", f);
    std::printf("\n");
    for (std::size_t p = 0; p < probe.predictorCount(); ++p) {
        std::printf("%-20s", names[p]);
        for (const double f : fprs)
            std::printf(" %8.4f", probe.roc(p).tprAtFpr(f));
        std::printf("\n");
    }
}

/** One MPPPB variant's runs over the test mixes, with the mixes' LRU
 * baselines. */
struct VariantRuns
{
    std::vector<trace::Mix> mixes;
    InstCount insts;
    std::vector<std::size_t> lru;
    std::vector<std::vector<std::size_t>> variants; //!< [variant][mix]
};

VariantRuns
addVariants(Campaign& c, const Knobs& k,
            const std::vector<core::MpppbConfig>& configs)
{
    VariantRuns v;
    v.mixes = testMixes(k, 8);
    v.insts = mcInsts(k);
    c.addStandaloneIpc(v.mixes, v.insts);
    v.lru = c.addMixes(v.mixes, v.insts, PolicySpec::byName("LRU"));
    for (const auto& cfg : configs)
        v.variants.push_back(
            c.addMixes(v.mixes, v.insts, PolicySpec::mpppb(cfg)));
    return v;
}

/** Geomean over the mixes of variant @p i's weighted speedup
 * normalized to LRU's. */
double
normalizedWs(const Campaign& c, const VariantRuns& v, std::size_t i)
{
    std::vector<double> ws;
    for (std::size_t m = 0; m < v.mixes.size(); ++m)
        ws.push_back(
            c.weightedSpeedup(v.variants[i][m], v.mixes[m], v.insts) /
            c.weightedSpeedup(v.lru[m], v.mixes[m], v.insts));
    return geomean(ws);
}

/**
 * Fig. 9: every feature of the multi-core set forced to associativity
 * A = 1..18, against the original per-feature values (paper: uniform
 * A=1 about +6.4%, A=18 +7.8%, original +8.0%; the target is a rising
 * curve with the original on top).
 */
View
planFig9(Campaign& c, const Knobs& k)
{
    const auto base = core::multiCoreMpppbConfig();
    std::vector<core::MpppbConfig> configs;
    for (unsigned a = 1; a <= core::kMaxFeatureAssoc; ++a) {
        configs.push_back(base);
        configs.back().predictor.features =
            core::withUniformAssociativity(base.predictor.features, a);
    }
    configs.push_back(base);
    return [&c, v = addVariants(c, k, configs)] {
        std::printf("# Figure 9: uniform feature associativity vs the "
                    "original per-feature values (%zu mixes)\n",
                    v.mixes.size());
        std::printf("%-12s %20s\n", "assoc", "norm.weighted.speedup");
        for (unsigned a = 1; a <= core::kMaxFeatureAssoc; ++a)
            std::printf("%-12u %20.4f\n", a, normalizedWs(c, v, a - 1));
        std::printf("%-12s %20.4f\n", "original",
                    normalizedWs(c, v, core::kMaxFeatureAssoc));
    };
}

/**
 * Fig. 10: leave-one-feature-out over the Table 1(a) set on the
 * multi-programmed mixes (SRRIP substrate). Features contribute small
 * deltas, and at least one removal helps (insert(17,1) in the paper),
 * so the set is not minimal.
 */
View
planFig10(Campaign& c, const Knobs& k)
{
    core::MpppbConfig base = core::multiCoreMpppbConfig();
    base.predictor.features = core::featureSetTable1A();
    std::vector<core::MpppbConfig> configs = {base};
    for (std::size_t f = 0; f < base.predictor.features.size(); ++f)
        configs.push_back(core::withoutFeature(base, f));
    return [&c, features = base.predictor.features,
            v = addVariants(c, k, configs)] {
        std::printf("# Figure 10: leave-one-feature-out over Table 1(a), "
                    "4-core (%zu mixes)\n",
                    v.mixes.size());
        const double original = normalizedWs(c, v, 0);
        std::printf("%-20s %20s %10s\n", "omitted",
                    "norm.weighted.speedup", "delta");
        std::printf("%-20s %20.4f %10s\n", "(none)", original, "-");
        for (std::size_t f = 0; f < features.size(); ++f) {
            const double ws = normalizedWs(c, v, f + 1);
            std::printf("%-20s %20.4f %+10.4f\n",
                        features[f].toString().c_str(), ws,
                        ws - original);
        }
    };
}

/**
 * Table 3: per held-out workload (standing in for the SPEC CPU 2017
 * simpoints that arrived after the feature design), MPPPB with the
 * Table 1(b) features, whole and leave-one-out, reporting the feature
 * whose removal raises MPKI the most.
 */
View
planTable3(Campaign& c, const Knobs& k)
{
    const InstCount insts = k.insts.value_or(1500000);
    core::MpppbConfig base = core::singleThreadMpppbConfig();
    base.predictor.features = core::featureSetTable1B();

    // [workload][0] = the full set, [workload][1 + f] = without f.
    std::vector<std::vector<std::size_t>> ids(trace::heldOutSize());
    for (unsigned w = 0; w < trace::heldOutSize(); ++w) {
        const auto spec = c.heldOut(w, insts);
        ids[w].push_back(c.add(runner::RunRequest::singleCore(
            spec, PolicySpec::mpppb(base))));
        for (std::size_t f = 0; f < base.predictor.features.size(); ++f)
            ids[w].push_back(c.add(runner::RunRequest::singleCore(
                spec, PolicySpec::mpppb(core::withoutFeature(base, f)))));
    }
    return [&c, features = base.predictor.features, ids] {
        std::printf("# Table 3: dominant feature per held-out workload "
                    "(Table 1(b) set)\n");
        std::printf("%-18s %-20s %10s %10s %9s\n", "workload", "feature",
                    "without", "with", "increase");
        for (const auto& w : ids) {
            const double with_all = c[w[0]].mpki;
            double worst_without = with_all;
            std::size_t dominant = 0;
            for (std::size_t f = 0; f < features.size(); ++f) {
                const double m = c[w[1 + f]].mpki;
                if (m > worst_without) {
                    worst_without = m;
                    dominant = f;
                }
            }
            const double pct =
                with_all > 0.0
                    ? 100.0 * (worst_without - with_all) / with_all
                    : 0.0;
            std::printf("%-18s %-20s %10.2f %10.2f %8.2f%%\n",
                        c[w[0]].benchmark.c_str(),
                        worst_without > with_all
                            ? features[dominant].toString().c_str()
                            : "(none helps)",
                        worst_without, with_all, pct);
        }
    };
}

/** Per-structure bit costs of one MPPPB configuration (§4.4). */
void
printBudget(const char* name, const core::MpppbConfig& cfg, unsigned cores,
            Addr llc_bytes, std::uint32_t llc_ways)
{
    const auto& feats = cfg.predictor.features;

    // Index-vector bits per sampler entry: one index per feature,
    // log2(tableSize) bits each (§3.3 item 3).
    unsigned index_bits = 0;
    std::size_t table_weights = 0;
    for (const auto& f : feats) {
        index_bits += log2Ceil(f.tableSize());
        table_weights += f.tableSize();
    }

    // Sampler entry: 16-bit partial tag + 9-bit confidence + 4-bit
    // LRU position + the index vector (§4.4).
    const unsigned entry_bits = 16 + 9 + 4 + index_bits;
    const std::uint64_t entries =
        static_cast<std::uint64_t>(cfg.predictor.sampledSetsPerCore) *
        cores * cfg.predictor.samplerAssoc;
    const double sampler_kb =
        static_cast<double>(entries) * entry_bits / 8.0 / 1024;
    const double tables_kb = static_cast<double>(table_weights) *
                             cfg.predictor.weightBits / 8.0 / 1024;
    // Per-core feature-value vector: bounded by one 64-bit value per
    // feature per core (PC history entries are shared).
    const double vector_kb =
        static_cast<double>(feats.size()) * 64 * cores / 8.0 / 1024;
    const std::uint64_t sets = llc_bytes / 64 / llc_ways;
    const double substrate_kb =
        cfg.substrate == core::Substrate::Mdpp
            ? static_cast<double>(sets) * (llc_ways - 1) / 8.0 / 1024
            : static_cast<double>(sets) * llc_ways * 2 / 8.0 / 1024;
    const double total_kb = sampler_kb + tables_kb + vector_kb + substrate_kb;

    std::printf("%s (%u core(s), %.0fMB LLC):\n", name, cores,
                llc_bytes / 1024.0 / 1024.0);
    std::printf("  index vector bits/entry : %u\n", index_bits);
    std::printf("  sampler                 : %8.2f KB\n", sampler_kb);
    std::printf("  prediction tables       : %8.2f KB\n", tables_kb);
    std::printf("  feature-value vectors   : %8.2f KB\n", vector_kb);
    std::printf("  default policy state    : %8.2f KB\n", substrate_kb);
    std::printf("  total                   : %8.2f KB (%.2f%% of LLC)\n\n",
                total_kb,
                100.0 * total_kb * 1024 / static_cast<double>(llc_bytes));
}

/** §4.4 (paper: 27.5KB single-core — sampler 20.67KB, tables 2.64KB,
 * feature vector 0.44KB, MDPP 3.75KB — and 104KB for 4 cores). */
void
printOverhead()
{
    std::printf("# Hardware budget accounting (paper §4.4: 27.5KB "
                "single-core, 104KB for 4 cores, each ~1.3%% of LLC)\n\n");
    printBudget("single-thread MPPPB", core::singleThreadMpppbConfig(), 1,
                2 * 1024 * 1024, 16);
    printBudget("multi-core MPPPB", core::multiCoreMpppbConfig(), 4,
                8 * 1024 * 1024, 16);
}

struct Figure
{
    const char* name;
    std::function<View(Campaign&, const Knobs&)> plan;
};

/** Every figure, in the order printed when none is named. */
const std::vector<Figure>&
figures()
{
    static const std::vector<Figure> all = {
        {"fig3", [](Campaign&, const Knobs& k) -> View {
             return [k] { printFig3(k); };
         }},
        {"fig4", planFig4},
        {"fig5", planFig5},
        {"fig6", planFig6},
        {"fig7", planFig7},
        {"fig8", [](Campaign&, const Knobs& k) -> View {
             return [k] { printFig8(k); };
         }},
        {"fig9", planFig9},
        {"fig10", planFig10},
        {"table3", planTable3},
        {"overhead", [](Campaign&, const Knobs&) -> View {
             return printOverhead;
         }},
    };
    return all;
}

const Figure&
figureNamed(const std::string& name)
{
    for (const auto& f : figures())
        if (name == f.name)
            return f;
    std::string known;
    for (const auto& f : figures())
        known += std::string(" ") + f.name;
    fatal("unknown figure \"" + name + "\" (figures:" + known + ")");
}

int
run(int argc, char** argv)
{
    std::optional<std::string> jobs_arg;
    std::vector<const Figure*> selected;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--jobs") {
            fatalIf(i + 1 == argc, "--jobs needs a value");
            jobs_arg = argv[++i];
        } else {
            selected.push_back(&figureNamed(arg));
        }
    }
    const Knobs knobs = Knobs::fromEnv(jobs_arg);
    if (selected.empty())
        for (const auto& f : figures())
            selected.push_back(&f);

    Campaign campaign;
    std::vector<View> views;
    for (const auto* f : selected)
        views.push_back(f->plan(campaign, knobs));
    campaign.run(knobs.jobs);
    for (const auto& view : views)
        view();
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return run(argc, argv);
    } catch (const FatalError& e) {
        std::fflush(stdout);
        std::fprintf(stderr, "paper_figures: %s\n", e.what());
        return 2;
    }
}

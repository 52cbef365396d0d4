/**
 * @file
 * Microbenchmarks (google-benchmark) of the predictor and policy hot
 * paths: multiperspective observe (lookup + sampler training),
 * baseline predictor observes, tree-PLRU placement, and SRRIP victim
 * selection. These guard the simulator's throughput, which every
 * figure bench depends on.
 */

#include <benchmark/benchmark.h>

#include "core/feature_sets.hpp"
#include "core/predictor.hpp"
#include "policy/perceptron.hpp"
#include "policy/sdbp.hpp"
#include "policy/srrip.hpp"
#include "policy/tree_plru.hpp"
#include "util/rng.hpp"

namespace {

using namespace mrp;

cache::CacheGeometry
llcGeom()
{
    return cache::CacheGeometry(2 * 1024 * 1024, 16);
}

cache::AccessInfo
randomAccess(Rng& rng)
{
    cache::AccessInfo info;
    info.pc = 0x400000 + 4 * rng.below(256);
    info.addr = rng.below(1ull << 32);
    info.type = cache::AccessType::Load;
    return info;
}

/**
 * A demand load from a bounded working set: 32 blocks per LLC set, so
 * sampler sets see reuse at every LRU position and full sets evict.
 */
cache::AccessInfo
workingSetAccess(Rng& rng, std::uint32_t set,
                 const cache::CoreContext& ctx)
{
    constexpr Addr kLlcSets = 2048; // llcGeom().sets()
    cache::AccessInfo info;
    info.pc = 0x400000 + 4 * rng.below(256);
    info.addr = (set + kLlcSets * rng.below(32)) * 64 + rng.below(64);
    info.type = cache::AccessType::Load;
    info.ctx = &ctx;
    return info;
}

void
BM_MultiperspectiveObserve(benchmark::State& state)
{
    core::MultiperspectiveConfig cfg;
    cfg.features = core::featureSetTable1A();
    core::MultiperspectivePredictor pred(llcGeom(), 1, cfg);
    cache::CoreContext ctx;
    Rng rng(1);
    std::uint32_t set = 0;
    for (auto _ : state) {
        const auto info = workingSetAccess(rng, set, ctx);
        benchmark::DoNotOptimize(
            pred.observe(info, set, rng.chance(0.4)));
        ctx.notePc(info.pc);
        set = (set + 32) & 2047; // alternate over sampled sets
    }
}
BENCHMARK(BM_MultiperspectiveObserve);

void
BM_MultiperspectiveObserveUnsampled(benchmark::State& state)
{
    core::MultiperspectiveConfig cfg;
    cfg.features = core::featureSetTable1A();
    core::MultiperspectivePredictor pred(llcGeom(), 1, cfg);
    cache::CoreContext ctx;
    Rng rng(1);
    for (auto _ : state) {
        const auto info = workingSetAccess(rng, 1, ctx);
        benchmark::DoNotOptimize(pred.observe(info, 1, true));
        ctx.notePc(info.pc);
    }
}
BENCHMARK(BM_MultiperspectiveObserveUnsampled);

void
BM_SdbpObserve(benchmark::State& state)
{
    policy::SdbpPredictor pred(llcGeom(), 1);
    Rng rng(2);
    for (auto _ : state) {
        const auto info = randomAccess(rng);
        benchmark::DoNotOptimize(pred.observe(info, 0, false));
    }
}
BENCHMARK(BM_SdbpObserve);

void
BM_PerceptronObserve(benchmark::State& state)
{
    policy::PerceptronPredictor pred(llcGeom(), 1);
    Rng rng(3);
    for (auto _ : state) {
        const auto info = randomAccess(rng);
        benchmark::DoNotOptimize(pred.observe(info, 0, false));
    }
}
BENCHMARK(BM_PerceptronObserve);

void
BM_TreePlruSetPosition(benchmark::State& state)
{
    policy::TreePlru tree(2048, 16);
    Rng rng(4);
    for (auto _ : state) {
        tree.setPosition(static_cast<std::uint32_t>(rng.below(2048)),
                         static_cast<std::uint32_t>(rng.below(16)),
                         static_cast<std::uint32_t>(rng.below(16)));
        benchmark::DoNotOptimize(tree);
    }
}
BENCHMARK(BM_TreePlruSetPosition);

void
BM_SrripVictim(benchmark::State& state)
{
    policy::SrripPolicy rrip(llcGeom());
    Rng rng(5);
    cache::AccessInfo info;
    for (auto _ : state) {
        const auto set = static_cast<std::uint32_t>(rng.below(2048));
        benchmark::DoNotOptimize(rrip.victimWay(info, set));
        rrip.setRrpv(set, static_cast<std::uint32_t>(rng.below(16)), 0);
    }
}
BENCHMARK(BM_SrripVictim);

} // namespace

BENCHMARK_MAIN();

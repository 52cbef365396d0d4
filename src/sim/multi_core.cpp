#include "sim/multi_core.hpp"

#include <memory>
#include <vector>

#include "cpu/core_model.hpp"
#include "policy/lru.hpp"
#include "prof/profiler.hpp"
#include "telemetry/session.hpp"
#include "util/logging.hpp"

namespace mrp::sim {

double
MultiCoreResult::weightedSpeedup(
    std::span<const double> single_ipc) const
{
    fatalIf(single_ipc.size() != ipc.size(), ErrorCode::Config,
            "weightedSpeedup needs one standalone IPC per core");
    double ws = 0.0;
    for (std::size_t i = 0; i < ipc.size(); ++i) {
        fatalIf(single_ipc[i] <= 0.0, ErrorCode::Config,
                "standalone IPC must be positive");
        ws += ipc[i] / single_ipc[i];
    }
    return ws;
}

namespace {

/** Shared state of one interleaved multi-core simulation. */
struct MixState
{
    std::vector<std::unique_ptr<cpu::CoreModel>> cores;

    unsigned
    stepEarliest()
    {
        unsigned best = 0;
        Cycle best_cycle = cores[0]->nextEnterCycle();
        for (unsigned c = 1; c < cores.size(); ++c) {
            const Cycle e = cores[c]->nextEnterCycle();
            if (e < best_cycle) {
                best_cycle = e;
                best = c;
            }
        }
        cores[best]->step();
        return best;
    }

    InstCount
    totalRetired() const
    {
        InstCount n = 0;
        for (const auto& c : cores)
            n += c->retired();
        return n;
    }
};

std::string
mixNameOf(std::span<trace::TraceSource* const> mix)
{
    std::string name = mix[0]->name();
    for (std::size_t c = 1; c < mix.size(); ++c)
        name += "+" + mix[c]->name();
    return name;
}

void
checkStatsConsistency(const cache::Hierarchy& hier, unsigned n)
{
    panicIf(!hier.llc().stats().consistent(),
            "LLC statistics failed the self-consistency check");
    for (unsigned c = 0; c < n; ++c) {
        panicIf(!hier.l1(c).stats().consistent(),
                "L1 statistics failed the self-consistency check");
        panicIf(!hier.l2(c).stats().consistent(),
                "L2 statistics failed the self-consistency check");
    }
}

} // namespace

MultiCoreResult
runMultiCore(std::span<trace::TraceSource* const> mix,
             const PolicyFactory& factory, const MultiCoreConfig& cfg)
{
    fatalIf(mix.size() < 2, ErrorCode::Config,
            "multi-core mixes need at least two sources");

    const unsigned n = static_cast<unsigned>(mix.size());
    cache::HierarchyConfig hcfg = cfg.hierarchy;
    hcfg.cores = n;
    const cache::CacheGeometry geom(hcfg.llcBytes, hcfg.llcWays);
    auto policy = factory(geom, n);
    const std::string policy_name = policy->name();
    cache::Hierarchy hier(hcfg, std::move(policy));

    MixState sim;
    for (unsigned c = 0; c < n; ++c) {
        fatalIf(mix[c] == nullptr, ErrorCode::Config,
                "null trace source in mix");
        mix[c]->reset(); // allow sequential reuse of one source
        sim.cores.push_back(std::make_unique<cpu::CoreModel>(
            c, hier, *mix[c], /*loop=*/true));
    }

    // Warmup until the total instruction budget is reached.
    {
        MRP_PROF_SCOPE("warmup");
        while (sim.totalRetired() < cfg.warmupInstructions)
            sim.stepEarliest();
    }

    hier.resetStats();
    // Attach telemetry at the start of the measurement window so every
    // metric covers exactly what LevelStats covers.
    std::unique_ptr<telemetry::Session> session;
    if (cfg.telemetry.enabled) {
        session = std::make_unique<telemetry::Session>(cfg.telemetry);
        hier.attachTelemetry(*session);
    }
    std::vector<Cycle> base_cycle(n, 0);
    std::vector<InstCount> base_insts(n, 0), end_insts(n, 0);
    std::vector<bool> done(n, false);
    for (unsigned c = 0; c < n; ++c) {
        base_cycle[c] = sim.cores[c]->cycle();
        base_insts[c] = sim.cores[c]->retired();
    }

    {
        MRP_PROF_SCOPE("measure");
        unsigned remaining = n;
        while (remaining > 0) {
            const unsigned c = sim.stepEarliest();
            if (!done[c] &&
                sim.cores[c]->cycle() >=
                    base_cycle[c] + cfg.measureCycles) {
                done[c] = true;
                end_insts[c] = sim.cores[c]->retired();
                --remaining;
            }
        }
    }

    MultiCoreResult r;
    r.policy = policy_name;
    r.mixName = mixNameOf(mix);
    r.ipc.resize(n);
    r.instructions.resize(n);
    InstCount measured_total = 0;
    for (unsigned c = 0; c < n; ++c) {
        r.instructions[c] = end_insts[c] - base_insts[c];
        r.ipc[c] = static_cast<double>(r.instructions[c]) /
                   static_cast<double>(cfg.measureCycles);
        measured_total += r.instructions[c];
    }
    checkStatsConsistency(hier, n);
    r.llcDemandMisses = hier.llc().stats().demandMisses;
    r.mpki = 1000.0 * static_cast<double>(r.llcDemandMisses) /
             static_cast<double>(measured_total);
    if (session)
        r.telemetry = session->finish();
    return r;
}

double
standaloneIpc(trace::TraceSource& source, const MultiCoreConfig& cfg)
{
    cache::HierarchyConfig hcfg = cfg.hierarchy;
    hcfg.cores = 1;
    const cache::CacheGeometry geom(hcfg.llcBytes, hcfg.llcWays);
    cache::Hierarchy hier(hcfg,
                          std::make_unique<policy::LruPolicy>(geom));
    source.reset(); // allow sequential reuse of one source
    cpu::CoreModel cpu(0, hier, source, /*loop=*/true);

    // Same per-thread warmup share as a 4-core mixed run.
    cpu.run(cfg.warmupInstructions / 4);
    const Cycle base_cycle = cpu.cycle();
    const InstCount base_insts = cpu.retired();
    while (cpu.cycle() < base_cycle + cfg.measureCycles)
        cpu.step();
    return static_cast<double>(cpu.retired() - base_insts) /
           static_cast<double>(cfg.measureCycles);
}

} // namespace mrp::sim

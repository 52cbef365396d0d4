#include "sim/multi_core.hpp"

#include <memory>
#include <vector>

#include "cpu/core_model.hpp"
#include "policy/lru.hpp"
#include "prof/profiler.hpp"
#include "telemetry/session.hpp"
#include "tenant/tenant_policy.hpp"
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

/**
 * The partitioned variant. Differences from the shared path, all in
 * service of the per-tenant determinism contract:
 *  - warmup is a per-core share of the budget (each core's measurement
 *    starts when *it* has retired warmupInstructions/n), so a tenant's
 *    window does not depend on how fast its co-runners warm up;
 *  - per-core misses are measured as deltas against per-core baselines
 *    instead of one global stats reset;
 *  - QoS epochs (total retired instructions) begin once every core is
 *    measuring, and resize the partition by at most one way each.
 */
MultiCoreResult
runPartitioned(std::span<trace::TraceSource* const> mix,
               const PolicyFactory& factory, const MultiCoreConfig& cfg)
{
    const unsigned n = static_cast<unsigned>(mix.size());
    cache::HierarchyConfig hcfg = cfg.hierarchy;
    hcfg.cores = n;
    const cache::CacheGeometry geom(hcfg.llcBytes, hcfg.llcWays);
    const std::string why =
        tenant::describeInvalid(cfg.tenancy, geom.ways(), n);
    fatalIf(!why.empty(), ErrorCode::Config, "invalid tenancy: " + why);

    auto wrapped = std::make_unique<tenant::TenantPartitionPolicy>(
        geom, n, cfg.tenancy, factory);
    tenant::TenantPartitionPolicy* tpp = wrapped.get();
    const std::string policy_name = wrapped->name();
    cache::Hierarchy hier(hcfg, std::move(wrapped));

    MixState sim;
    for (unsigned c = 0; c < n; ++c) {
        fatalIf(mix[c] == nullptr, ErrorCode::Config,
                "null trace source in mix");
        mix[c]->reset(); // allow sequential reuse of one source
        sim.cores.push_back(std::make_unique<cpu::CoreModel>(
            c, hier, *mix[c], /*loop=*/true));
    }

    const InstCount warmup_share = cfg.warmupInstructions / n;
    std::vector<Cycle> base_cycle(n, 0);
    std::vector<InstCount> base_insts(n, 0), end_insts(n, 0);
    std::vector<std::uint64_t> base_miss(n, 0), end_miss(n, 0);
    std::vector<bool> warmed(n, false), done(n, false);
    unsigned warming = n;

    {
        MRP_PROF_SCOPE("warmup");
        while (warming > 0) {
            const unsigned c = sim.stepEarliest();
            if (!warmed[c] &&
                sim.cores[c]->retired() >= warmup_share) {
                warmed[c] = true;
                base_cycle[c] = sim.cores[c]->cycle();
                base_insts[c] = sim.cores[c]->retired();
                base_miss[c] = hier.llc().demandMissesOf(c);
                --warming;
            }
        }
    }

    // Telemetry attaches once every core is measuring; tenant.* gauges
    // are registered here because only the driver sees both the
    // partition map and the cache occupancy.
    std::unique_ptr<telemetry::Session> session;
    telemetry::Counter* resize_counter = nullptr;
    std::vector<telemetry::Gauge*> epoch_mpki_gauge;
    if (cfg.telemetry.enabled) {
        session = std::make_unique<telemetry::Session>(cfg.telemetry);
        hier.attachTelemetry(*session);
        auto& reg = session->registry();
        resize_counter = &reg.counter("tenant.qos_resizes");
        for (unsigned t = 0; t < n; ++t) {
            const std::string prefix =
                "tenant." + std::to_string(t) + ".";
            reg.gaugeFn(prefix + "ways",
                        [tpp, t] {
                            return static_cast<double>(
                                tpp->partition().waysOf(t));
                        });
            reg.gaugeFn(prefix + "occupancy",
                        [&hier, t] {
                            return static_cast<double>(
                                hier.llc().ownerBlockCount(t));
                        });
            epoch_mpki_gauge.push_back(
                &reg.gauge(prefix + "epoch_mpki"));
        }
    }

    // QoS state: epochs are counted in total retired instructions from
    // the moment measurement began on every core.
    std::unique_ptr<tenant::QosController> qos;
    std::vector<InstCount> epoch_insts(n, 0);
    std::vector<std::uint64_t> epoch_miss(n, 0);
    InstCount next_epoch_at = 0;
    if (cfg.tenancy.qos.enabled) {
        qos = std::make_unique<tenant::QosController>(
            cfg.tenancy, tpp->partition());
        for (unsigned c = 0; c < n; ++c) {
            epoch_insts[c] = sim.cores[c]->retired();
            epoch_miss[c] = hier.llc().demandMissesOf(c);
        }
        next_epoch_at =
            sim.totalRetired() + cfg.tenancy.qos.epochInstructions;
    }

    {
        MRP_PROF_SCOPE("measure");
        unsigned remaining = n;
        std::vector<double> epoch_mpki(n, 0.0);
        while (remaining > 0) {
            const unsigned c = sim.stepEarliest();
            if (!done[c] &&
                sim.cores[c]->cycle() >=
                    base_cycle[c] + cfg.measureCycles) {
                done[c] = true;
                end_insts[c] = sim.cores[c]->retired();
                end_miss[c] = hier.llc().demandMissesOf(c);
                --remaining;
            }
            if (qos && sim.totalRetired() >= next_epoch_at) {
                for (unsigned t = 0; t < n; ++t) {
                    const InstCount insts =
                        sim.cores[t]->retired() - epoch_insts[t];
                    const std::uint64_t miss =
                        hier.llc().demandMissesOf(t) - epoch_miss[t];
                    epoch_mpki[t] =
                        insts == 0 ? 0.0
                                   : 1000.0 * static_cast<double>(miss) /
                                         static_cast<double>(insts);
                    epoch_insts[t] = sim.cores[t]->retired();
                    epoch_miss[t] = hier.llc().demandMissesOf(t);
                    if (t < epoch_mpki_gauge.size())
                        epoch_mpki_gauge[t]->set(epoch_mpki[t]);
                }
                if (qos->onEpoch(epoch_mpki) && resize_counter)
                    resize_counter->add();
                next_epoch_at += cfg.tenancy.qos.epochInstructions;
            }
        }
    }

    MultiCoreResult r;
    r.policy = policy_name;
    r.mixName = mixNameOf(mix);
    r.ipc.resize(n);
    r.instructions.resize(n);
    InstCount measured_total = 0;
    std::uint64_t measured_misses = 0;
    for (unsigned c = 0; c < n; ++c) {
        r.instructions[c] = end_insts[c] - base_insts[c];
        r.ipc[c] = static_cast<double>(r.instructions[c]) /
                   static_cast<double>(cfg.measureCycles);
        measured_total += r.instructions[c];
        measured_misses += end_miss[c] - base_miss[c];
    }
    checkStatsConsistency(hier, n);
    r.llcDemandMisses = measured_misses;
    r.mpki = 1000.0 * static_cast<double>(measured_misses) /
             static_cast<double>(measured_total);
    r.tenants.resize(n);
    for (unsigned t = 0; t < n; ++t) {
        TenantOutcome& o = r.tenants[t];
        o.waysInitial = cfg.tenancy.tenants[t].ways;
        o.waysFinal = tpp->partition().waysOf(t);
        o.demandMisses = end_miss[t] - base_miss[t];
        o.instructions = r.instructions[t];
        o.mpki = r.instructions[t] == 0
                     ? 0.0
                     : 1000.0 * static_cast<double>(o.demandMisses) /
                           static_cast<double>(r.instructions[t]);
        o.sloMpki = cfg.tenancy.tenants[t].sloMpki;
    }
    if (qos)
        r.qosSchedule = qos->resizes();
    if (session)
        r.telemetry = session->finish();
    return r;
}

} // namespace

MultiCoreResult
runMultiCore(std::span<trace::TraceSource* const> mix,
             const PolicyFactory& factory, const MultiCoreConfig& cfg)
{
    fatalIf(mix.size() < 2, ErrorCode::Config,
            "multi-core mixes need at least two sources");
    if (cfg.tenancy.configured())
        return runPartitioned(mix, factory, cfg);

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

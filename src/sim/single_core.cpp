#include "sim/single_core.hpp"

#include <limits>

#include "cpu/core_model.hpp"
#include "policy/lru.hpp"
#include "policy/min.hpp"
#include "prof/profiler.hpp"
#include "telemetry/session.hpp"
#include "trace/stream_reader.hpp"
#include "util/logging.hpp"

namespace mrp::sim {

namespace {

SingleCoreResult
runWithPolicy(trace::TraceSource& source,
              std::unique_ptr<cache::LlcPolicy> policy,
              const SingleCoreConfig& cfg,
              const std::vector<cache::LlcObserver*>& observers)
{
    cache::HierarchyConfig hcfg = cfg.hierarchy;
    hcfg.cores = 1;
    const std::string policy_name = policy->name();
    cache::Hierarchy hier(hcfg, std::move(policy));
    for (cache::LlcObserver* o : observers)
        hier.llc().addObserver(*o);
    // Rewind so one source can serve several sequential runs (bench
    // loops reuse a source across policies); replay is identical by
    // the TraceSource contract.
    source.reset();
    cpu::CoreModel cpu(0, hier, source, /*loop=*/false);

    // instructions() is known up front for every source (file headers
    // carry it, generators hit their target exactly), so the warmup
    // window never depends on materializing the stream.
    const auto warm_insts = static_cast<InstCount>(
        static_cast<double>(source.instructions()) *
        cfg.warmupFraction);
    {
        MRP_PROF_SCOPE("warmup");
        cpu.run(warm_insts);
    }
    hier.resetStats();
    // Attach telemetry at the start of the measurement window so every
    // metric covers exactly what LevelStats covers.
    std::unique_ptr<telemetry::Session> session;
    if (cfg.telemetry.enabled) {
        session = std::make_unique<telemetry::Session>(cfg.telemetry);
        hier.attachTelemetry(*session);
        // Delivery introspection (an execution artifact, never part
        // of deterministic reports — telemetry is opt-in).
        if (auto* da =
                dynamic_cast<trace::DecodeAheadSource*>(&source)) {
            session->registry().gaugeFn(
                "trace.decode_ahead.queue_depth_max", [da] {
                    return static_cast<double>(
                        da->stats().maxQueueDepth);
                });
        }
    }
    const InstCount base_insts = cpu.retired();
    const Cycle base_cycle = cpu.cycle();

    {
        MRP_PROF_SCOPE("measure");
        cpu.run(std::numeric_limits<InstCount>::max());
    }

    SingleCoreResult r;
    r.benchmark = source.name();
    r.policy = policy_name;
    r.instructions = cpu.retired() - base_insts;
    r.cycles = cpu.cycle() - base_cycle;
    fatalIf(r.instructions == 0 || r.cycles == 0, ErrorCode::Config,
            "measurement window is empty; trace too short for the "
            "warmup fraction");
    r.ipc = static_cast<double>(r.instructions) /
            static_cast<double>(r.cycles);
    const auto& llc = hier.llc().stats();
    panicIf(!llc.consistent(),
            "LLC statistics failed the self-consistency check");
    panicIf(!hier.l1(0).stats().consistent(),
            "L1 statistics failed the self-consistency check");
    panicIf(!hier.l2(0).stats().consistent(),
            "L2 statistics failed the self-consistency check");
    r.llcDemandAccesses = llc.demandAccesses;
    r.llcDemandMisses = llc.demandMisses;
    r.llcBypasses = llc.bypasses;
    r.mpki = 1000.0 * static_cast<double>(r.llcDemandMisses) /
             static_cast<double>(r.instructions);
    if (session)
        r.telemetry = session->finish();
    return r;
}

} // namespace

SingleCoreResult
runSingleCore(trace::TraceSource& source, const PolicyFactory& factory,
              const SingleCoreConfig& cfg,
              const std::vector<cache::LlcObserver*>& observers)
{
    const cache::CacheGeometry geom(cfg.hierarchy.llcBytes,
                                    cfg.hierarchy.llcWays);
    return runWithPolicy(source, factory(geom, 1), cfg, observers);
}

SingleCoreResult
runSingleCoreMin(trace::TraceSource& source,
                 const SingleCoreConfig& cfg)
{
    const cache::CacheGeometry geom(cfg.hierarchy.llcBytes,
                                    cfg.hierarchy.llcWays);
    // Pass 1: record the (policy-invariant) LLC reference stream.
    // Telemetry (if requested) covers only the measured MIN pass.
    SingleCoreConfig pass1_cfg = cfg;
    pass1_cfg.telemetry.enabled = false;
    policy::LlcAccessRecorder recorder;
    {
        MRP_PROF_SCOPE("min.record");
        runSingleCore(
            source,
            [](const cache::CacheGeometry& g, unsigned) {
                return std::make_unique<policy::LruPolicy>(g);
            },
            pass1_cfg, {&recorder});
    }
    // Pass 2: replay under MIN over the identical record sequence
    // (the TraceSource contract guarantees reset() replays exactly).
    source.reset();
    MRP_PROF_SCOPE("min.replay");
    auto next_use = policy::computeNextUse(recorder.sequence());
    SingleCoreResult r = runWithPolicy(
        source,
        std::make_unique<policy::MinPolicy>(geom, std::move(next_use)),
        cfg, {});
    r.policy = "MIN";
    return r;
}

} // namespace mrp::sim

/**
 * @file
 * Multi-programmed simulation driver following the paper's
 * FIESTA-inspired methodology (§4.2): each core replays an
 * equal-standalone-time region of its benchmark, looping as needed, so
 * all cores stay active for the whole measurement; warmup runs until a
 * total instruction budget is reached; each thread is then measured
 * over a fixed window of its own cycles. The driver takes any number
 * of cores >= 2 (the paper's mixes use 4). All cores share the LLC.
 */

#ifndef MRP_SIM_MULTI_CORE_HPP
#define MRP_SIM_MULTI_CORE_HPP

#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/hierarchy.hpp"
#include "sim/driver_config.hpp"
#include "sim/policies.hpp"
#include "trace/source.hpp"
#include "trace/trace.hpp"

namespace mrp::telemetry {
struct RunTelemetry;
}

namespace mrp::sim {

/**
 * Multi-core driver parameters (scaled from the paper's billions).
 * The hierarchy and warmup knobs live in DriverConfig (the multi-core
 * driver honours warmupInstructions); declare new shared fields there,
 * not here.
 */
struct MultiCoreConfig : DriverConfig
{
    MultiCoreConfig() { hierarchy = cache::multiCoreConfig(); }

    Cycle measureCycles = 500000; //!< per-core window
};

/** Never built; kept only so perfbench/traced.cpp compiles. */
struct TenantOutcome
{
};

/** Never built; kept only so perfbench/traced.cpp compiles. */
struct QosResize
{
};

/** Measured outcome of one multi-core mix run. */
struct MultiCoreResult
{
    std::string mixName;
    std::string policy;
    std::vector<double> ipc;
    std::vector<InstCount> instructions;
    std::uint64_t llcDemandMisses = 0;
    double mpki = 0.0; //!< LLC demand misses per kilo (all cores)
    /** Present iff cfg.telemetry.enabled; covers the measured window. */
    std::shared_ptr<const telemetry::RunTelemetry> telemetry;

    /** Always empty; kept only so perfbench/traced.cpp compiles. */
    std::vector<TenantOutcome> tenants;
    /** Always empty; kept only so perfbench/traced.cpp compiles. */
    std::vector<QosResize> qosSchedule;

    /**
     * Weighted speedup given per-benchmark standalone IPCs:
     * sum_i ipc[i] / single_ipc[i] (normalize against the LRU run's
     * value to obtain the paper's normalized weighted speedup).
     * @p single_ipc must supply exactly one value per core.
     */
    double weightedSpeedup(std::span<const double> single_ipc) const;
};

/**
 * Run a mix of >= 2 sources under the policy built by @p factory, one
 * core per source. Each core owns its source exclusively for the whole
 * run (the drivers loop the sources via reset(), so each must be
 * independently resettable — the TraceSpec factory hands out exactly
 * such sources). Results are byte-identical for any chunking or
 * delivery mode of the same record sequences.
 */
MultiCoreResult runMultiCore(std::span<trace::TraceSource* const> mix,
                             const PolicyFactory& factory,
                             const MultiCoreConfig& cfg = {});

/** Convenience overload for the 4-core paper mixes. */
inline MultiCoreResult
runMultiCore(const std::array<trace::TraceSource*, 4>& mix,
             const PolicyFactory& factory,
             const MultiCoreConfig& cfg = {})
{
    return runMultiCore(
        std::span<trace::TraceSource* const>(mix.data(), mix.size()),
        factory, cfg);
}

/**
 * Standalone IPC of one benchmark on the multi-core hierarchy with an
 * LRU LLC (the SingleIPC_i of §4.5), using the same loop-and-measure
 * scheme as the mixed run.
 */
double standaloneIpc(trace::TraceSource& source,
                     const MultiCoreConfig& cfg = {});

} // namespace mrp::sim

#endif // MRP_SIM_MULTI_CORE_HPP

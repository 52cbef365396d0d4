/**
 * @file
 * Single-thread simulation driver: one core, one trace, one LLC
 * policy; warmup then measurement, reporting IPC and LLC demand MPKI
 * (the quantities of Figures 6 and 7).
 */

#ifndef MRP_SIM_SINGLE_CORE_HPP
#define MRP_SIM_SINGLE_CORE_HPP

#include <memory>
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
 * Single-thread driver parameters. The hierarchy and warmup knobs
 * live in DriverConfig (the single-thread driver honours
 * warmupFraction); declare new shared fields there, not here.
 */
struct SingleCoreConfig : DriverConfig
{
};

/** Measured outcome of one single-thread run. */
struct SingleCoreResult
{
    std::string benchmark;
    std::string policy;
    InstCount instructions = 0; //!< measured (post-warmup)
    Cycle cycles = 0;
    double ipc = 0.0;
    std::uint64_t llcDemandAccesses = 0;
    std::uint64_t llcDemandMisses = 0;
    std::uint64_t llcBypasses = 0;
    double mpki = 0.0; //!< LLC demand misses per kilo-instruction
    /** Present iff cfg.telemetry.enabled; covers the measured window. */
    std::shared_ptr<const telemetry::RunTelemetry> telemetry;
};

/**
 * Stream @p source under the policy built by @p factory. The source
 * is rewound first and left exhausted. Results are byte-identical for
 * any chunking or delivery mode of the same record sequence.
 * @p observers (ROC probes, access recorders) are attached to the LLC
 * in order and see the whole run, warmup included; they coexist with
 * telemetry and never change the result.
 */
SingleCoreResult
runSingleCore(trace::TraceSource& source, const PolicyFactory& factory,
              const SingleCoreConfig& cfg = {},
              const std::vector<cache::LlcObserver*>& observers = {});

/**
 * Run @p source under Belady's MIN with optimal bypass: a recording
 * pre-pass (under LRU) captures the policy-invariant LLC reference
 * stream, next-use distances are computed, and the measured pass runs
 * MinPolicy (paper §4.3). The source is reset() between the passes —
 * only the (much smaller) LLC reference stream is ever held in
 * memory, so MIN works on streamed traces too.
 */
SingleCoreResult runSingleCoreMin(trace::TraceSource& source,
                                  const SingleCoreConfig& cfg = {});

} // namespace mrp::sim

#endif // MRP_SIM_SINGLE_CORE_HPP

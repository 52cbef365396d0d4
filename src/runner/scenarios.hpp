/**
 * @file
 * Multi-tenant campaign builders: declarative generators for the
 * shared-cache RunRequest batches the paper-style QoS studies run —
 * a victim workload co-scheduled with an aggressor at several
 * partition splits (the noisy-neighbor sweep), and a cross product
 * of workload mixes under one tenancy configuration (the mix
 * campaign).
 *
 * Like every figure in this repo, a campaign is data, not loops in a
 * bench: the builders emit plain RunRequests, so one batch runs on
 * the ExperimentRunner unchanged, and its report is byte-identical at
 * any --jobs.
 */

#ifndef MRP_RUNNER_SCENARIOS_HPP
#define MRP_RUNNER_SCENARIOS_HPP

#include <vector>

#include "runner/run_request.hpp"
#include "tenant/config.hpp"
#include "trace/spec.hpp"

namespace mrp::runner {

/** Shared-cache scenario knobs applied to every emitted request. */
struct ScenarioConfig
{
    sim::MultiCoreConfig sim;
    PolicySpec policy = PolicySpec::byName("LRU");
    /** SLO ceiling for tenant 0 (the victim); <= 0 = no SLO. */
    double victimSloMpki = 0.0;
    /** Enable the QoS controller on the SLO'd runs. */
    bool qos = false;
};

/**
 * Noisy-neighbor sweep: victim + aggressor sharing the LLC.
 *
 * Emits, in order:
 *  - one unpartitioned baseline (the interference measurement),
 *  - one fixed-partition run per entry of @p victimWays (labelled
 *    "part:V/A"), isolating the victim at V of the LLC's ways,
 *  - when cfg.qos is set, one QoS run starting from the LAST
 *    victimWays split with cfg.victimSloMpki as tenant 0's ceiling
 *    (labelled "qos:V/A").
 *
 * Each way count must leave the aggressor at least one way. Throws
 * FatalError(Config) on an invalid split.
 */
std::vector<RunRequest>
noisyNeighborBatch(const trace::TraceSpec& victim,
                   const trace::TraceSpec& aggressor,
                   const std::vector<unsigned>& victimWays,
                   const ScenarioConfig& cfg);

/**
 * Mix campaign: every mix of @p mixes (each a full tenant list — one
 * spec per core) under one tenancy configuration. tenancy.tenants
 * must match the arity of every mix; an empty tenancy runs the mixes
 * unpartitioned. Labels are the mix names.
 */
std::vector<RunRequest>
mixCampaign(const std::vector<std::vector<trace::TraceSpec>>& mixes,
            const tenant::TenancyConfig& tenancy,
            const ScenarioConfig& cfg);

} // namespace mrp::runner

#endif // MRP_RUNNER_SCENARIOS_HPP

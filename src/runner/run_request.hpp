/**
 * @file
 * The declarative experiment-batch vocabulary of the parallel runner:
 * a RunRequest names one (trace, policy, driver config) cell, a
 * RunResult is its measured outcome plus execution metrics, and a
 * RunSet is the deterministic, index-ordered collection a batch
 * produces.
 *
 * Every paper figure is a cross product of workloads and policies;
 * expressing the product as data (instead of nested loops in each
 * bench) is what lets one engine execute any figure in parallel.
 */

#ifndef MRP_RUNNER_RUN_REQUEST_HPP
#define MRP_RUNNER_RUN_REQUEST_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/mpppb.hpp"
#include "sim/multi_core.hpp"
#include "sim/single_core.hpp"
#include "trace/spec.hpp"
#include "trace/trace.hpp"
#include "util/logging.hpp"
#include "util/types.hpp"

namespace mrp::prof {
struct ProfileReport;
}

namespace mrp::runner {

/**
 * Policy selection for one run: a registry name, optionally overridden
 * by an explicit factory (for configurations that have no registered
 * name, e.g. leave-one-feature-out MPPPB variants) or by an MPPPB
 * configuration carried as data. The name "MIN" with no factory
 * selects the two-pass Belady oracle, which is valid for single-core
 * requests only.
 *
 * The data-payload form gives an MPPPB variant a data identity: a
 * factory is a closure and has none, while an MpppbConfig serializes
 * (see runner/request_json.hpp) and is resolved to a factory at
 * execution time. So a campaign can deduplicate identical MPPPB
 * variants, and a sweep candidate is a value.
 */
struct PolicySpec
{
    std::string name;          //!< display / report name
    sim::PolicyFactory factory; //!< empty => resolve name via registry
    /** When set (and no factory), the run builds an MPPPB policy from
     * this configuration instead of resolving `name`. */
    std::shared_ptr<const core::MpppbConfig> mpppbConfig;

    static PolicySpec
    byName(std::string name)
    {
        return {std::move(name), {}, nullptr};
    }

    static PolicySpec
    custom(std::string name, sim::PolicyFactory factory)
    {
        return {std::move(name), std::move(factory), nullptr};
    }

    /** Serializable MPPPB-by-configuration spec (name "MPPPB"). */
    static PolicySpec
    mpppb(const core::MpppbConfig& cfg)
    {
        return {"MPPPB", {},
                std::make_shared<const core::MpppbConfig>(cfg)};
    }
};

/**
 * One experiment cell. Workloads are named by TraceSpec values, so a
 * request never holds trace bytes: each execution attempt opens its
 * own fresh TraceSource (worker threads share nothing), and the
 * checkpoint/report identity of a run — benchmark name, instruction
 * count — comes from the spec, independent of how the records are
 * delivered. Borrowed specs alone reference caller-owned traces, which
 * must outlive the batch.
 */
struct RunRequest
{
    /** 1 spec => single-core run; >= 2 specs => multi-core mix run. */
    std::vector<trace::TraceSpec> sources;
    PolicySpec policy;
    /** Driver configuration matching the source count. */
    std::variant<sim::SingleCoreConfig, sim::MultiCoreConfig> config;
    /** Optional report label; defaults to the benchmark/mix name. */
    std::string label;
    /**
     * Delivery knobs forwarded to every TraceSpec::open() of this
     * request (file read mode, decode-ahead, chunk size). Purely an
     * execution concern: results are byte-identical under every
     * setting.
     */
    trace::TraceSpec::OpenOptions openOptions;

    static RunRequest
    singleCore(trace::TraceSpec spec, PolicySpec policy,
               sim::SingleCoreConfig cfg = {})
    {
        RunRequest r;
        r.sources.push_back(std::move(spec));
        r.policy = std::move(policy);
        r.config = cfg;
        return r;
    }

    static RunRequest
    multiCore(std::array<trace::TraceSpec, 4> mix, PolicySpec policy,
              sim::MultiCoreConfig cfg = {})
    {
        RunRequest r;
        r.sources.assign(std::make_move_iterator(mix.begin()),
                         std::make_move_iterator(mix.end()));
        r.policy = std::move(policy);
        r.config = std::move(cfg);
        return r;
    }

    /** N-core mix (>= 2 sources); tenancy configs size to the mix. */
    static RunRequest
    multiCore(std::vector<trace::TraceSpec> mix, PolicySpec policy,
              sim::MultiCoreConfig cfg = {})
    {
        RunRequest r;
        r.sources = std::move(mix);
        r.policy = std::move(policy);
        r.config = std::move(cfg);
        return r;
    }

    bool
    isMultiCore() const
    {
        return std::holds_alternative<sim::MultiCoreConfig>(config);
    }
};

/**
 * Measured outcome of one request, keyed by its index in the batch so
 * result ordering is independent of worker completion order. A failed
 * run (unknown policy, driver error) carries the message in `error`
 * and zeroed metrics instead of aborting the batch.
 */
struct RunResult
{
    std::size_t index = 0;
    std::string benchmark; //!< trace name, or "a+b+c+d" for a mix
    std::string policy;
    std::string label;
    std::string error; //!< empty on success
    /** Classification of `error`; None on success. */
    ErrorCode errorCode = ErrorCode::None;
    bool multiCore = false;
    /** Experiment seed copied from the request's DriverConfig;
     * recorded in reports and the checkpoint journal when nonzero
     * (0 = default seeding, omitted for byte-compat with pre-seed
     * artifacts). */
    std::uint64_t seed = 0;

    double ipc = 0.0;
    double mpki = 0.0;
    InstCount instructions = 0; //!< measured (post-warmup)
    std::uint64_t llcDemandAccesses = 0;
    std::uint64_t llcDemandMisses = 0;
    std::uint64_t llcBypasses = 0;
    std::vector<double> coreIpc; //!< per-core IPCs (multi-core only)
    /**
     * Tenancy outcome, present iff the request configured tenants
     * (empty vectors otherwise, and the report/journal fields are
     * omitted for byte-compat with non-tenant artifacts). All values
     * are simulated outcomes, so they survive checkpoint/resume.
     */
    std::vector<sim::TenantOutcome> tenants;
    std::vector<tenant::QosResize> qosSchedule;
    /**
     * Present iff the request's config enabled telemetry. Excluded
     * from the checkpoint journal, so runs restored by --resume carry
     * no metrics (like wallSeconds, telemetry is a per-execution
     * artifact, not part of the simulated outcome).
     */
    std::shared_ptr<const telemetry::RunTelemetry> telemetry;
    /**
     * Present iff RunnerOptions::profile was set: the run's phase tree
     * and host-resource capture (see prof/profiler.hpp). Like
     * telemetry, a per-execution artifact — excluded from the
     * checkpoint journal and from deterministic reports.
     */
    std::shared_ptr<const prof::ProfileReport> profile;

    /** Wall-clock execution metrics; excluded from deterministic
     * reports (they vary run to run). */
    double wallSeconds = 0.0;
    double instsPerSecond = 0.0; //!< simulated instructions / second
    /** Execution attempts consumed (1 = no retries); excluded from
     * reports and the checkpoint journal. */
    unsigned attempts = 1;

    bool ok() const { return error.empty(); }
};

/** Per-policy aggregate over the successful runs of a batch. */
struct PolicySummary
{
    std::string policy;
    unsigned runs = 0;
    double geomeanIpc = 0.0;
    double meanMpki = 0.0;
};

/**
 * Outcome of one batch: results in request-index order plus batch-wide
 * execution metrics.
 */
struct RunSet
{
    std::vector<RunResult> results; //!< results[i] answers request i
    unsigned jobs = 1;              //!< worker threads used
    double wallSeconds = 0.0;       //!< whole-batch wall clock

    /**
     * Per-policy geomean IPC and mean MPKI over successful runs, in
     * order of first appearance in the batch. Runs with non-positive
     * IPC (errors) are skipped.
     */
    std::vector<PolicySummary> policySummaries() const;

    /**
     * IPC of the result at @p index divided by the IPC of the
     * same-benchmark run under @p baseline_policy; throws FatalError
     * if no such baseline run exists in the batch.
     */
    double speedupOver(std::size_t index,
                       const std::string& baseline_policy) const;
};

} // namespace mrp::runner

#endif // MRP_RUNNER_RUN_REQUEST_HPP

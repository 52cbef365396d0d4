/**
 * @file
 * JSON and CSV serialization of a RunSet.
 *
 * Reports are deterministic by default: runs appear in request-index
 * order and the wall-clock/throughput fields are omitted, so the same
 * batch produces byte-identical output regardless of worker count.
 * Opt into the timing fields (ReportOptions::timing) for profiling
 * output that is *not* expected to be reproducible.
 *
 * JSON schema (timing fields marked †):
 *   {
 *     "jobs"†: N, "wallSeconds"†: S,
 *     "runs": [
 *       { "index": I, "benchmark": "...", "policy": "...",
 *         "label": "...", "mode": "single"|"multi",
 *         "ipc": X, "mpki": X, "instructions": N,
 *         "llcDemandAccesses": N, "llcDemandMisses": N,
 *         "llcBypasses": N,
 *         "seed": N,                  // re-seeded runs only (see
 *                                     // DriverConfig::seed)
 *         "coreIpc": [X, ...],        // multi-core runs only
 *         "metrics": { ... },         // telemetry-enabled runs only
 *                                     // (see telemetry/export.hpp)
 *         "error": "...",             // failed runs only
 *         "errorCode": "...",         // failed runs only (see
 *                                     // mrp::errorCodeName)
 *         "wallSeconds"†: S, "instsPerSecond"†: X }, ... ],
 *     "summary": [
 *       { "policy": "...", "runs": N,
 *         "geomeanIpc": X, "meanMpki": X }, ... ]
 *   }
 *
 * CSV columns:
 *   index,benchmark,policy,label,mode,ipc,mpki,instructions,
 *   llc_demand_accesses,llc_demand_misses,llc_bypasses,error,
 *   error_code[,seed][,wall_seconds,insts_per_second]†
 * (the seed column appears only when at least one run carries a
 * non-default DriverConfig::seed)
 * When at least one run carries telemetry, a second section follows
 * the table, separated by a blank line:
 *   # metrics
 *   index,metric,value
 *   <one flattened metric per row, in run-index then name order>
 *
 * Both the embedded "metrics" objects and the standalone exports below
 * are deterministic, so the byte-identity guarantee is unchanged.
 */

#ifndef MRP_RUNNER_REPORT_HPP
#define MRP_RUNNER_REPORT_HPP

#include <string>

#include "runner/run_request.hpp"

namespace mrp::runner {

struct ReportOptions
{
    /** Include the nondeterministic wall-clock/throughput fields. */
    bool timing = false;
};

/** Serialize @p set as JSON (UTF-8, trailing newline). */
std::string toJson(const RunSet& set, const ReportOptions& opts = {});

/** Serialize @p set as CSV (header row, trailing newline). */
std::string toCsv(const RunSet& set, const ReportOptions& opts = {});

/**
 * Standalone metrics document (--metrics): one entry per
 * telemetry-enabled run, identified by index/benchmark/policy/label,
 * with the same "metrics" object embedded in toJson.
 */
std::string toMetricsJson(const RunSet& set);

/**
 * Combined Chrome trace_event document (--trace-out) loadable in
 * Perfetto / chrome://tracing: each telemetry-enabled run becomes one
 * process (pid = run index, named "benchmark/policy"), each
 * instrumented component one named thread, each epoch one complete
 * event whose args carry per-epoch counter deltas.
 */
std::string toTraceJson(const RunSet& set);

/** Write @p content to @p path; throws FatalError on I/O failure. */
void writeFile(const std::string& path, const std::string& content);

} // namespace mrp::runner

#endif // MRP_RUNNER_REPORT_HPP

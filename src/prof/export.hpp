/**
 * @file
 * Serialization of profiles into the `--prof-out` document
 * (schema "mrp-bench-v1") and into Chrome trace_event form.
 *
 * A `--prof-out` document records, per run, the host stats (wall,
 * user and sys time, RSS high-water, throughput) and the coarse
 * phase tree. It explains where one run's time went; comparing the
 * speed of two builds is perfbench's job (perfbench/README.md).
 */

#ifndef MRP_PROF_EXPORT_HPP
#define MRP_PROF_EXPORT_HPP

#include <string>
#include <vector>

#include "prof/profiler.hpp"

namespace mrp::prof {

/** Host identity stamped into every `--prof-out` document. */
struct MachineInfo
{
    std::string os;       //!< uname sysname, e.g. "Linux"
    std::string release;  //!< uname release
    std::string arch;     //!< uname machine, e.g. "x86_64"
    std::string hostname;
    unsigned cpus = 0;    //!< hardware_concurrency
};

/** Capture the current host's identity. */
MachineInfo machineInfo();

/**
 * Git SHA of the working tree: $MRP_GIT_SHA if set (CI sets it so
 * artifacts stay attributable without a .git directory), else
 * `git rev-parse HEAD`, else "unknown".
 */
std::string gitSha();

/** One profiled run inside a `--prof-out` document. */
struct BenchRun
{
    std::string label;     //!< unique within the document
    std::string benchmark; //!< trace/workload name
    std::string policy;
    ProfileReport profile;
};

/**
 * Render a complete `--prof-out` document. Deterministic for a
 * given input (machine/sha are inputs, not re-captured), pretty enough
 * to read, stable enough to diff.
 */
std::string benchJson(const std::string& name,
                      const std::vector<BenchRun>& runs,
                      const MachineInfo& machine,
                      const std::string& sha);

/**
 * One phase tree as a JSON object — the same
 * `{label, count, inclusiveSeconds, exclusiveSeconds, children}`
 * shape benchJson embeds under "phases". @p indent is the column the
 * object starts at (children indent four further).
 */
std::string phaseTreeJson(const PhaseStat& p, int indent);

/**
 * Append the phase tree of @p run as Chrome trace_event "X" events to
 * @p events (one JSON object string each, no trailing commas).
 * Timestamps are synthesized from the tree (a phase starts where its
 * prior siblings end), so the flame is an *aggregate* profile laid out
 * as a timeline, not a faithful event order. Events are emitted under
 * process id @p pid / thread 0 with a metadata record naming the
 * process "prof:<benchmark>/<policy>", which keeps profile flames
 * separate from the telemetry processes in a combined trace document.
 */
void appendTraceEvents(const BenchRun& run, int pid,
                       std::vector<std::string>* events);

} // namespace mrp::prof

#endif // MRP_PROF_EXPORT_HPP

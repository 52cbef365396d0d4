#include "runner/report.hpp"

#include <cstdio>
#include <fstream>

#include "prof/export.hpp"
#include "telemetry/export.hpp"
#include "util/json_writer.hpp"
#include "util/logging.hpp"

namespace mrp::runner {

namespace {

using json::formatDouble;

std::string
escapeCsv(const std::string& s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

void
appendRunJson(std::string& out, const RunResult& r,
              const ReportOptions& opts)
{
    out += "    {\"index\": " + std::to_string(r.index);
    out += ", \"benchmark\": \"" + json::escape(r.benchmark) + "\"";
    out += ", \"policy\": \"" + json::escape(r.policy) + "\"";
    out += ", \"label\": \"" + json::escape(r.label) + "\"";
    out += std::string(", \"mode\": ") +
           (r.multiCore ? "\"multi\"" : "\"single\"");
    out += ", \"ipc\": " + formatDouble(r.ipc);
    out += ", \"mpki\": " + formatDouble(r.mpki);
    out += ", \"instructions\": " + std::to_string(r.instructions);
    out += ", \"llcDemandAccesses\": " +
           std::to_string(r.llcDemandAccesses);
    out += ", \"llcDemandMisses\": " +
           std::to_string(r.llcDemandMisses);
    out += ", \"llcBypasses\": " + std::to_string(r.llcBypasses);
    // Seed provenance: emitted only when a non-default seed was set,
    // so pre-seed reports stay byte-identical.
    if (r.seed != 0)
        out += ", \"seed\": " + std::to_string(r.seed);
    if (r.multiCore) {
        out += ", \"coreIpc\": [";
        for (std::size_t c = 0; c < r.coreIpc.size(); ++c) {
            if (c)
                out += ", ";
            out += formatDouble(r.coreIpc[c]);
        }
        out += "]";
    }
    if (r.telemetry)
        out += ", \"metrics\": " +
               telemetry::metricsJson(*r.telemetry, "    ");
    if (!r.ok()) {
        out += ", \"error\": \"" + json::escape(r.error) + "\"";
        out += std::string(", \"errorCode\": \"") +
               errorCodeName(r.errorCode) + "\"";
    }
    if (opts.timing) {
        out += ", \"wallSeconds\": " + formatDouble(r.wallSeconds);
        out += ", \"instsPerSecond\": " +
               formatDouble(r.instsPerSecond);
        // Host-resource split from the profiler when one was attached
        // (RunnerOptions::profile); absent otherwise so timing-off and
        // profile-off reports stay byte-stable across PRs.
        if (r.profile) {
            out += ", \"userSeconds\": " +
                   formatDouble(r.profile->userSeconds);
            out += ", \"sysSeconds\": " +
                   formatDouble(r.profile->sysSeconds);
            out += ", \"maxRssKb\": " +
                   std::to_string(r.profile->maxRssKb);
            out += ", \"accessesPerSecond\": " +
                   formatDouble(r.profile->accessesPerSecond);
        }
    }
    out += "}";
}

} // namespace

std::string
toJson(const RunSet& set, const ReportOptions& opts)
{
    std::string out = "{\n";
    if (opts.timing) {
        out += "  \"jobs\": " + std::to_string(set.jobs) + ",\n";
        out += "  \"wallSeconds\": " + formatDouble(set.wallSeconds) +
               ",\n";
    }
    out += "  \"runs\": [\n";
    for (std::size_t i = 0; i < set.results.size(); ++i) {
        appendRunJson(out, set.results[i], opts);
        if (i + 1 < set.results.size())
            out += ",";
        out += "\n";
    }
    out += "  ],\n  \"summary\": [\n";
    const auto summaries = set.policySummaries();
    for (std::size_t i = 0; i < summaries.size(); ++i) {
        const auto& s = summaries[i];
        out += "    {\"policy\": \"" + json::escape(s.policy) + "\"";
        out += ", \"runs\": " + std::to_string(s.runs);
        out += ", \"geomeanIpc\": " + formatDouble(s.geomeanIpc);
        out += ", \"meanMpki\": " + formatDouble(s.meanMpki) + "}";
        if (i + 1 < summaries.size())
            out += ",";
        out += "\n";
    }
    out += "  ]\n}\n";
    return out;
}

std::string
toCsv(const RunSet& set, const ReportOptions& opts)
{
    std::string out =
        "index,benchmark,policy,label,mode,ipc,mpki,instructions,"
        "llc_demand_accesses,llc_demand_misses,llc_bypasses,error,"
        "error_code";
    bool any_profile = false;
    bool any_seed = false;
    for (const auto& r : set.results) {
        any_profile = any_profile || r.profile != nullptr;
        any_seed = any_seed || r.seed != 0;
    }
    // The seed column appears only when some run was re-seeded, so
    // default-seeded CSV output is byte-identical to pre-seed output.
    if (any_seed)
        out += ",seed";
    if (opts.timing) {
        out += ",wall_seconds,insts_per_second";
        if (any_profile)
            out += ",user_seconds,sys_seconds,accesses_per_second";
    }
    out += "\n";
    for (const auto& r : set.results) {
        out += std::to_string(r.index);
        out += "," + escapeCsv(r.benchmark);
        out += "," + escapeCsv(r.policy);
        out += "," + escapeCsv(r.label);
        out += std::string(",") + (r.multiCore ? "multi" : "single");
        out += "," + formatDouble(r.ipc);
        out += "," + formatDouble(r.mpki);
        out += "," + std::to_string(r.instructions);
        out += "," + std::to_string(r.llcDemandAccesses);
        out += "," + std::to_string(r.llcDemandMisses);
        out += "," + std::to_string(r.llcBypasses);
        out += "," + escapeCsv(r.error);
        out += std::string(",") +
               (r.ok() ? "" : errorCodeName(r.errorCode));
        if (any_seed)
            out += "," + std::to_string(r.seed);
        if (opts.timing) {
            out += "," + formatDouble(r.wallSeconds);
            out += "," + formatDouble(r.instsPerSecond);
            if (any_profile) {
                if (r.profile) {
                    out += "," + formatDouble(r.profile->userSeconds);
                    out += "," + formatDouble(r.profile->sysSeconds);
                    out += "," +
                           formatDouble(r.profile->accessesPerSecond);
                } else {
                    out += ",,,";
                }
            }
        }
        out += "\n";
    }
    bool any_telemetry = false;
    for (const auto& r : set.results)
        any_telemetry = any_telemetry || r.telemetry != nullptr;
    if (any_telemetry) {
        out += "\n# metrics\nindex,metric,value\n";
        for (const auto& r : set.results) {
            if (!r.telemetry)
                continue;
            for (const auto& row :
                 telemetry::metricsCsvRows(*r.telemetry))
                out += std::to_string(r.index) + "," + row + "\n";
        }
    }
    return out;
}

std::string
toMetricsJson(const RunSet& set)
{
    std::string out = "{\n  \"runs\": [\n";
    bool first = true;
    for (const auto& r : set.results) {
        if (!r.telemetry)
            continue;
        if (!first)
            out += ",\n";
        first = false;
        out += "    {\"index\": " + std::to_string(r.index);
        out += ", \"benchmark\": \"" + json::escape(r.benchmark) + "\"";
        out += ", \"policy\": \"" + json::escape(r.policy) + "\"";
        out += ", \"label\": \"" + json::escape(r.label) + "\"";
        out += ", \"metrics\": " +
               telemetry::metricsJson(*r.telemetry, "    ") + "}";
    }
    if (!first)
        out += "\n";
    out += "  ]\n}\n";
    return out;
}

std::string
toTraceJson(const RunSet& set)
{
    std::string out = "{\"traceEvents\": [\n";
    bool first = true;
    for (const auto& r : set.results) {
        if (!r.telemetry)
            continue;
        if (!first)
            out += ",\n";
        first = false;
        out += telemetry::traceEvents(
            *r.telemetry, static_cast<unsigned>(r.index),
            r.benchmark + "/" + r.policy);
    }
    // Profiled runs contribute their phase tree as a second process
    // family (pid 10000+index) so the host-time flame sits next to the
    // simulated-time telemetry in the same viewer document.
    for (const auto& r : set.results) {
        if (!r.profile)
            continue;
        prof::BenchRun br;
        br.label = r.label;
        br.benchmark = r.benchmark;
        br.policy = r.policy;
        br.profile = *r.profile;
        std::vector<std::string> events;
        prof::appendTraceEvents(
            br, static_cast<int>(10000 + r.index), &events);
        for (const auto& e : events) {
            if (!first)
                out += ",\n";
            first = false;
            out += e;
        }
    }
    out += "\n], \"displayTimeUnit\": \"ms\"}\n";
    return out;
}

void
writeFile(const std::string& path, const std::string& content)
{
    std::ofstream f(path, std::ios::binary);
    fatalIf(!f, "cannot open for writing: " + path);
    f << content;
    f.flush();
    fatalIf(!f, "write failed: " + path);
}

} // namespace mrp::runner

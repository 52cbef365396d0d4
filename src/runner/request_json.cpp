#include "runner/request_json.hpp"

#include <climits>
#include <cmath>

#include "util/json_writer.hpp"
#include "util/logging.hpp"

namespace mrp::runner {

namespace {

using json::Value;

// --- require helpers over the generic JSON tree ---------------------

using json::wholeNumber;

double
reqWhole(const Value& v, std::string_view key, const std::string& what,
         double lo, double hi)
{
    return wholeNumber(v.require(key, Value::Type::Number, what), lo, hi,
                       key, what);
}

std::uint64_t
reqU64(const Value& v, std::string_view key, const std::string& what)
{
    return static_cast<std::uint64_t>(
        reqWhole(v, key, what, 0, std::nextafter(0x1p64, 0.0)));
}

int
reqInt(const Value& v, std::string_view key, const std::string& what)
{
    return static_cast<int>(reqWhole(v, key, what, INT_MIN, INT_MAX));
}

unsigned
reqUnsigned(const Value& v, std::string_view key,
            const std::string& what)
{
    return static_cast<unsigned>(reqWhole(v, key, what, 0, UINT_MAX));
}

/** A finite number: formatDouble writes no JSON for NaN or inf. */
double
reqDouble(const Value& v, std::string_view key,
          const std::string& what)
{
    const double d = v.require(key, Value::Type::Number, what).number;
    fatalIf(!std::isfinite(d), ErrorCode::CorruptInput,
            what + ": " + std::string(key) + " must be finite");
    return d;
}

bool
reqBool(const Value& v, std::string_view key, const std::string& what)
{
    return v.require(key, Value::Type::Bool, what).boolean;
}

const std::string&
reqStr(const Value& v, std::string_view key, const std::string& what)
{
    return v.require(key, Value::Type::String, what).string;
}

const Value&
reqObj(const Value& v, std::string_view key, const std::string& what)
{
    return v.require(key, Value::Type::Object, what);
}

const Value&
reqArr(const Value& v, std::string_view key, const std::string& what)
{
    return v.require(key, Value::Type::Array, what);
}

// --- MpppbConfig <-> JSON -------------------------------------------

std::string
mpppbJson(const core::MpppbConfig& c)
{
    std::string out = "{" + json::key("features") + "[";
    for (std::size_t i = 0; i < c.predictor.features.size(); ++i) {
        if (i)
            out += ", ";
        out += json::str(c.predictor.features[i].toString());
    }
    out += "], " + json::key("sampledSetsPerCore") +
           std::to_string(c.predictor.sampledSetsPerCore);
    out += ", " + json::key("samplerAssoc") +
           std::to_string(c.predictor.samplerAssoc);
    out += ", " + json::key("weightBits") +
           std::to_string(c.predictor.weightBits);
    out += ", " + json::key("confidenceClamp") +
           std::to_string(c.predictor.confidenceClamp);
    out += ", " + json::key("trainingThreshold") +
           std::to_string(c.predictor.trainingThreshold);
    out += ", " + json::key("substrate") +
           json::str(c.substrate == core::Substrate::Mdpp ? "mdpp"
                                                          : "srrip");
    out += ", " + json::key("tauBypass") +
           std::to_string(c.thresholds.tauBypass);
    out += ", " + json::key("tau") + "[" +
           std::to_string(c.thresholds.tau[0]) + ", " +
           std::to_string(c.thresholds.tau[1]) + ", " +
           std::to_string(c.thresholds.tau[2]) + "]";
    out += ", " + json::key("pi") + "[" +
           std::to_string(c.thresholds.pi[0]) + ", " +
           std::to_string(c.thresholds.pi[1]) + ", " +
           std::to_string(c.thresholds.pi[2]) + "]";
    out += ", " + json::key("tauNoPromote") +
           std::to_string(c.thresholds.tauNoPromote);
    out += ", " + json::key("bypassEnabled") +
           (c.bypassEnabled ? "true" : "false");
    out += ", " + json::key("dynamicBypass") +
           (c.dynamicBypass ? "true" : "false");
    out += ", " + json::key("duelingPeriod") +
           std::to_string(c.duelingPeriod);
    out += ", " + json::key("pselBits") + std::to_string(c.pselBits);
    out += ", " + json::key("mdppInsertPos") +
           std::to_string(c.mdpp.insertPos);
    out += ", " + json::key("mdppPromotePos") +
           std::to_string(c.mdpp.promotePos);
    out += ", " + json::key("srripBits") +
           std::to_string(c.srrip.bits);
    out += ", " + json::key("srripInsertRrpv") +
           std::to_string(c.srrip.insertRrpv);
    out += ", " + json::key("srripHitRrpv") +
           std::to_string(c.srrip.hitRrpv) + "}";
    return out;
}

core::MpppbConfig
mpppbFromJson(const Value& v, const std::string& what)
{
    v.requireOnly({"features", "sampledSetsPerCore", "samplerAssoc",
                   "weightBits", "confidenceClamp", "trainingThreshold",
                   "substrate", "tauBypass", "tau", "pi", "tauNoPromote",
                   "bypassEnabled", "dynamicBypass", "duelingPeriod",
                   "pselBits", "mdppInsertPos", "mdppPromotePos",
                   "srripBits", "srripInsertRrpv", "srripHitRrpv"},
                  what);
    core::MpppbConfig c;
    c.predictor.features.clear();
    for (const auto& f : reqArr(v, "features", what).array) {
        fatalIf(!f.isString(), ErrorCode::CorruptInput,
                what + ": feature entries must be strings");
        c.predictor.features.push_back(
            core::FeatureSpec::parse(f.string));
    }
    c.predictor.sampledSetsPerCore =
        reqUnsigned(v, "sampledSetsPerCore", what);
    c.predictor.samplerAssoc = reqUnsigned(v, "samplerAssoc", what);
    // The predictor's own bounds, so a bad payload is corrupt input
    // rather than a configuration error when the policy is built.
    c.predictor.weightBits =
        static_cast<unsigned>(reqWhole(v, "weightBits", what, 1, 8));
    c.predictor.confidenceClamp = static_cast<int>(
        reqWhole(v, "confidenceClamp", what, 0, INT_MAX));
    c.predictor.trainingThreshold =
        reqInt(v, "trainingThreshold", what);
    const std::string& sub = reqStr(v, "substrate", what);
    if (sub == "mdpp")
        c.substrate = core::Substrate::Mdpp;
    else if (sub == "srrip")
        c.substrate = core::Substrate::Srrip;
    else
        fatal(ErrorCode::CorruptInput,
              what + ": unknown substrate \"" + sub + "\"");
    c.thresholds.tauBypass = reqInt(v, "tauBypass", what);
    const auto& tau = reqArr(v, "tau", what).array;
    const auto& pi = reqArr(v, "pi", what).array;
    fatalIf(tau.size() != 3 || pi.size() != 3,
            ErrorCode::CorruptInput,
            what + ": tau and pi must each have 3 entries");
    for (std::size_t i = 0; i < 3; ++i) {
        c.thresholds.tau[i] = static_cast<int>(
            wholeNumber(tau[i], INT_MIN, INT_MAX, "tau", what));
        c.thresholds.pi[i] = static_cast<std::uint32_t>(
            wholeNumber(pi[i], 0, UINT32_MAX, "pi", what));
    }
    c.thresholds.tauNoPromote = reqInt(v, "tauNoPromote", what);
    c.bypassEnabled = reqBool(v, "bypassEnabled", what);
    c.dynamicBypass = reqBool(v, "dynamicBypass", what);
    c.duelingPeriod = reqUnsigned(v, "duelingPeriod", what);
    c.pselBits = reqUnsigned(v, "pselBits", what);
    c.mdpp.insertPos = reqUnsigned(v, "mdppInsertPos", what);
    c.mdpp.promotePos = reqUnsigned(v, "mdppPromotePos", what);
    c.srrip.bits = reqUnsigned(v, "srripBits", what);
    c.srrip.insertRrpv = reqUnsigned(v, "srripInsertRrpv", what);
    c.srrip.hitRrpv = reqUnsigned(v, "srripHitRrpv", what);
    return c;
}

// --- driver config <-> JSON -----------------------------------------

std::string
hierarchyJson(const cache::HierarchyConfig& h)
{
    std::string out =
        "{" + json::key("cores") + std::to_string(h.cores);
    out += ", " + json::key("l1Bytes") + std::to_string(h.l1Bytes);
    out += ", " + json::key("l1Ways") + std::to_string(h.l1Ways);
    out += ", " + json::key("l2Bytes") + std::to_string(h.l2Bytes);
    out += ", " + json::key("l2Ways") + std::to_string(h.l2Ways);
    out += ", " + json::key("llcBytes") + std::to_string(h.llcBytes);
    out += ", " + json::key("llcWays") + std::to_string(h.llcWays);
    out +=
        ", " + json::key("l1Latency") + std::to_string(h.l1Latency);
    out +=
        ", " + json::key("l2Latency") + std::to_string(h.l2Latency);
    out += ", " + json::key("llcLatency") +
           std::to_string(h.llcLatency);
    out += ", " + json::key("memLatency") +
           std::to_string(h.memLatency);
    out += ", " + json::key("prefetchEnabled") +
           (h.prefetchEnabled ? "true" : "false");
    out += ", " + json::key("prefetcher") + "{" +
           json::key("streams") +
           std::to_string(h.prefetcher.streams);
    out += ", " + json::key("degree") +
           std::to_string(h.prefetcher.degree);
    out += ", " + json::key("distance") +
           std::to_string(h.prefetcher.distance);
    out += ", " + json::key("window") +
           std::to_string(h.prefetcher.window) + "}}";
    return out;
}

/**
 * One cache level's geometry, rejected with CorruptInput where the
 * cache constructors would abort: the bytes are untrusted input.
 */
void
readGeometry(const Value& v, const char* prefix, Addr& bytes,
             std::uint32_t& ways, const std::string& what)
{
    const std::string p = prefix;
    bytes = reqU64(v, p + "Bytes", what);
    const std::uint64_t w = reqU64(v, p + "Ways", what);
    const std::string why =
        w > UINT32_MAX
            ? std::to_string(w) + " ways does not fit 32 bits"
            : cache::CacheGeometry::describeInvalid(
                  bytes, static_cast<std::uint32_t>(w));
    fatalIf(!why.empty(), ErrorCode::CorruptInput,
            what + ": invalid " + p + " geometry: " + why);
    ways = static_cast<std::uint32_t>(w);
}

cache::HierarchyConfig
hierarchyFromJson(const Value& v, const std::string& what)
{
    v.requireOnly({"cores", "l1Bytes", "l1Ways", "l2Bytes", "l2Ways",
                   "llcBytes", "llcWays", "l1Latency", "l2Latency",
                   "llcLatency", "memLatency", "prefetchEnabled",
                   "prefetcher"},
                  what);
    cache::HierarchyConfig h;
    const std::uint64_t cores = reqU64(v, "cores", what);
    const unsigned max_cores = cache::HierarchyConfig::kMaxCores;
    fatalIf(cores == 0 || cores > max_cores, ErrorCode::CorruptInput,
            what + ": cores must be 1.." + std::to_string(max_cores) +
                ", got " + std::to_string(cores));
    h.cores = static_cast<unsigned>(cores);
    readGeometry(v, "l1", h.l1Bytes, h.l1Ways, what);
    readGeometry(v, "l2", h.l2Bytes, h.l2Ways, what);
    readGeometry(v, "llc", h.llcBytes, h.llcWays, what);
    const std::uint32_t max_ways = cache::PolicyCache::kMaxWays;
    fatalIf(h.llcWays > max_ways, ErrorCode::CorruptInput,
            what + ": llcWays must be at most " + std::to_string(max_ways) +
                ", got " + std::to_string(h.llcWays));
    h.l1Latency = reqU64(v, "l1Latency", what);
    h.l2Latency = reqU64(v, "l2Latency", what);
    h.llcLatency = reqU64(v, "llcLatency", what);
    h.memLatency = reqU64(v, "memLatency", what);
    h.prefetchEnabled = reqBool(v, "prefetchEnabled", what);
    const auto& p = reqObj(v, "prefetcher", what);
    p.requireOnly({"streams", "degree", "distance", "window"}, what);
    const std::uint64_t streams = reqU64(p, "streams", what);
    const unsigned max_streams = prefetch::StreamPrefetcher::kMaxStreams;
    fatalIf(streams == 0 || streams > max_streams,
            ErrorCode::CorruptInput,
            what + ": prefetcher.streams must be 1.." +
                std::to_string(max_streams) + ", got " +
                std::to_string(streams));
    h.prefetcher.streams = static_cast<unsigned>(streams);
    h.prefetcher.degree = reqUnsigned(p, "degree", what);
    h.prefetcher.distance = reqUnsigned(p, "distance", what);
    h.prefetcher.window = reqUnsigned(p, "window", what);
    return h;
}

std::string
driverJson(const sim::DriverConfig& d)
{
    std::string out =
        "{" + json::key("hierarchy") + hierarchyJson(d.hierarchy);
    out += ", " + json::key("warmupFraction") +
           json::formatDouble(d.warmupFraction);
    out += ", " + json::key("warmupInstructions") +
           std::to_string(d.warmupInstructions);
    out += ", " + json::key("seed") + std::to_string(d.seed);
    return out;
}

void
driverFromJson(const Value& v, const std::string& what,
               sim::DriverConfig& d)
{
    d.hierarchy = hierarchyFromJson(reqObj(v, "hierarchy", what), what);
    d.warmupFraction = reqDouble(v, "warmupFraction", what);
    d.warmupInstructions = reqU64(v, "warmupInstructions", what);
    d.seed = reqU64(v, "seed", what);
}

} // namespace

std::string
requestJson(const RunRequest& request)
{
    fatalIf(static_cast<bool>(request.policy.factory),
            ErrorCode::Config,
            "policy \"" + request.policy.name +
                "\" holds a factory closure, which has no JSON "
                "identity; use PolicySpec::mpppb or a registry name");
    const bool telemetry = std::visit(
        [](const auto& c) { return c.telemetry.enabled; },
        request.config);
    fatalIf(telemetry, ErrorCode::Config,
            "telemetry-enabled runs have no JSON identity: "
            "RunTelemetry is a process-local object graph");

    std::string out = "{" + json::key("mode") +
                      json::str(request.isMultiCore() ? "multi"
                                                      : "single");
    out += ", " + json::key("label") + json::str(request.label);
    out += ", " + json::key("policy") + "{" + json::key("name") +
           json::str(request.policy.name);
    if (request.policy.mpppbConfig)
        out += ", " + json::key("mpppb") +
               mpppbJson(*request.policy.mpppbConfig);
    out += "}";
    out += ", " + json::key("sources") + "[";
    for (std::size_t i = 0; i < request.sources.size(); ++i) {
        if (i)
            out += ", ";
        out += request.sources[i].toJson();
    }
    out += "]";
    out += ", " + json::key("config");
    if (request.isMultiCore()) {
        const auto& c =
            std::get<sim::MultiCoreConfig>(request.config);
        out += driverJson(c) + ", " + json::key("measureCycles") +
               std::to_string(c.measureCycles);
        out += "}";
    } else {
        out += driverJson(
                   std::get<sim::SingleCoreConfig>(request.config)) +
               "}";
    }
    out += "}";
    return out;
}

RunRequest
requestFromJson(const json::Value& v, const std::string& what)
{
    fatalIf(!v.isObject(), ErrorCode::CorruptInput,
            what + ": request must be a JSON object");
    v.requireOnly({"mode", "label", "policy", "sources", "config"}, what);
    RunRequest r;
    const std::string& mode = reqStr(v, "mode", what);
    fatalIf(mode != "single" && mode != "multi",
            ErrorCode::CorruptInput,
            what + ": unknown mode \"" + mode + "\"");
    r.label = reqStr(v, "label", what);

    const auto& pol = reqObj(v, "policy", what);
    pol.requireOnly({"name", "mpppb"}, what);
    const std::string& name = reqStr(pol, "name", what);
    if (const auto* m = pol.get("mpppb"))
        r.policy = PolicySpec::mpppb(
            mpppbFromJson(*m, what + " policy"));
    else
        r.policy = PolicySpec::byName(name);
    r.policy.name = name;

    const auto& srcs = reqArr(v, "sources", what).array;
    if (mode == "multi")
        fatalIf(srcs.size() < 2, ErrorCode::CorruptInput,
                what + ": multi request needs >= 2 sources, got " +
                    std::to_string(srcs.size()));
    else
        fatalIf(srcs.size() != 1, ErrorCode::CorruptInput,
                what + ": single request needs 1 source, got " +
                    std::to_string(srcs.size()));
    for (const auto& s : srcs)
        r.sources.push_back(trace::TraceSpec::fromJson(s, what));

    const auto& cfg = reqObj(v, "config", what);
    if (mode == "multi") {
        cfg.requireOnly({"hierarchy", "warmupFraction",
                         "warmupInstructions", "seed", "measureCycles"},
                        what);
        sim::MultiCoreConfig c;
        driverFromJson(cfg, what, c);
        c.measureCycles = reqU64(cfg, "measureCycles", what);
        r.config = std::move(c);
    } else {
        cfg.requireOnly({"hierarchy", "warmupFraction",
                         "warmupInstructions", "seed"},
                        what);
        sim::SingleCoreConfig c;
        driverFromJson(cfg, what, c);
        r.config = c;
    }
    return r;
}

RunRequest
requestFromJson(const std::string& text, const std::string& what)
{
    return requestFromJson(json::parseJson(text, what), what);
}

} // namespace mrp::runner

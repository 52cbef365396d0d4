#include "trace/spec.hpp"

#include <climits>
#include <cmath>
#include <utility>

#include "trace/sampled_source.hpp"
#include "trace/workloads.hpp"
#include "util/json_writer.hpp"
#include "util/logging.hpp"

namespace mrp::trace {

namespace {

// Private address regions for the streaming families, above the
// suite/held-out slots so no family ever aliases another's blocks.
constexpr Addr kStreamDataBase = Addr{0x40} << 32;
constexpr Addr kStreamDataStride = Addr{0x10} << 32;
constexpr Pc kStreamCodeBase = 0x4000000;
constexpr Pc kStreamCodeStride = 0x100000;

std::unique_ptr<TraceSource>
maybeDecodeAhead(std::unique_ptr<TraceSource> src,
                 const TraceSpec::OpenOptions& opts)
{
    if (!opts.decodeAhead)
        return src;
    return std::make_unique<DecodeAheadSource>(std::move(src),
                                               opts.queueDepth);
}

} // namespace

TraceSpec
TraceSpec::borrowed(const Trace& t)
{
    TraceSpec s;
    s.kind_ = Kind::Borrowed;
    s.borrowedTrace_ = &t;
    s.name_ = t.name();
    s.instructions_ = t.instructions();
    return s;
}

TraceSpec
TraceSpec::suite(unsigned index, InstCount instructions,
                 std::uint64_t seed)
{
    fatalIf(index >= suiteSize(), ErrorCode::Config,
            "suite index " + std::to_string(index) + " out of range");
    TraceSpec s;
    s.kind_ = Kind::Suite;
    s.index_ = index;
    s.seed_ = seed;
    s.name_ = suiteName(index);
    s.instructions_ = instructions;
    return s;
}

TraceSpec
TraceSpec::heldOut(unsigned index, InstCount instructions,
                   std::uint64_t seed)
{
    fatalIf(index >= heldOutSize(), ErrorCode::Config,
            "held-out index " + std::to_string(index) +
                " out of range");
    TraceSpec s;
    s.kind_ = Kind::HeldOut;
    s.index_ = index;
    s.seed_ = seed;
    s.name_ = heldOutName(index);
    s.instructions_ = instructions;
    return s;
}

TraceSpec
TraceSpec::file(std::string path)
{
    TraceSpec s;
    s.kind_ = Kind::File;
    s.path_ = std::move(path);
    // The identity comes from the validated header alone (no chunk is
    // read), so an unreadable or non-v4 file fails here, not mid-run.
    const FileTraceSource header(s.path_);
    s.name_ = header.name();
    s.instructions_ = header.instructions();
    return s;
}

TraceSpec
TraceSpec::zipf(ZipfParams p)
{
    fatalIf(p.instructions == 0, ErrorCode::Config,
            "zipf spec needs a nonzero instruction target");
    if (p.dataBase == 0)
        p.dataBase = kStreamDataBase;
    if (p.codeBase == 0)
        p.codeBase = kStreamCodeBase;
    TraceSpec s;
    s.kind_ = Kind::Zipf;
    s.name_ = p.name;
    s.instructions_ = p.instructions;
    s.zipf_ = std::move(p);
    return s;
}

TraceSpec
TraceSpec::blockIo(BlockIoParams p)
{
    fatalIf(p.instructions == 0, ErrorCode::Config,
            "blkio spec needs a nonzero instruction target");
    if (p.dataBase == 0)
        p.dataBase = kStreamDataBase + kStreamDataStride;
    if (p.codeBase == 0)
        p.codeBase = kStreamCodeBase + kStreamCodeStride;
    TraceSpec s;
    s.kind_ = Kind::BlockIo;
    s.name_ = p.name;
    s.instructions_ = p.instructions;
    s.blockIo_ = std::move(p);
    return s;
}

TraceSpec
TraceSpec::phaseMix(std::string name, InstCount instructions,
                    InstCount phase_insts,
                    std::vector<TraceSpec> children)
{
    fatalIf(children.empty(), ErrorCode::Config,
            "phase mix needs at least one child spec");
    for (const auto& c : children)
        fatalIf(c.kind_ == Kind::Borrowed, ErrorCode::Config,
                "phase mix children must be self-contained specs, "
                "not borrowed traces");
    TraceSpec s;
    s.kind_ = Kind::PhaseMix;
    s.name_ = std::move(name);
    s.instructions_ = instructions;
    s.phaseInsts_ = phase_insts;
    s.children_ = std::move(children);
    return s;
}

TraceSpec
TraceSpec::sampled(TraceSpec child, unsigned rate_log2)
{
    fatalIf(child.kind_ == Kind::Borrowed, ErrorCode::Config,
            "sampled specs need a self-contained child spec, not a "
            "borrowed trace");
    fatalIf(child.kind_ == Kind::Sampled, ErrorCode::Config,
            "sampled specs do not nest ('" + child.name_ + "')");
    fatalIf(rate_log2 == 0 || rate_log2 >= 24, ErrorCode::Config,
            "sampling rate log2 must be in [1, 24)");
    TraceSpec s;
    s.kind_ = Kind::Sampled;
    s.name_ = child.name_ + kSampledNameMarker +
              std::to_string(rate_log2);
    s.instructions_ = child.instructions_;
    s.rateLog2_ = rate_log2;
    s.children_.push_back(std::move(child));
    return s;
}

TraceSpec
TraceSpec::withInstructions(InstCount instructions) const
{
    fatalIf(kind_ == Kind::Borrowed || kind_ == Kind::File,
            ErrorCode::Config,
            "cannot resize a " +
                std::string(kind_ == Kind::File ? "file"
                                                : "borrowed") +
                " trace spec ('" + name_ + "')");
    // A sampled spec resizes through its child, so the regenerated
    // stream and the derived name stay consistent.
    if (kind_ == Kind::Sampled)
        return sampled(children_[0].withInstructions(instructions),
                       rateLog2_);
    TraceSpec s = *this;
    s.instructions_ = instructions;
    s.zipf_.instructions = instructions;
    s.blockIo_.instructions = instructions;
    return s;
}

namespace {

std::uint64_t
requireU64(const json::Value& v, const char* key,
           const std::string& what)
{
    return static_cast<std::uint64_t>(json::wholeNumber(
        v.require(key, json::Value::Type::Number, what), 0,
        std::nextafter(0x1p64, 0.0), key, what));
}

unsigned
requireUnsigned(const json::Value& v, const char* key,
                const std::string& what)
{
    return static_cast<unsigned>(json::wholeNumber(
        v.require(key, json::Value::Type::Number, what), 0, UINT_MAX,
        key, what));
}

double
requireDouble(const json::Value& v, const char* key,
              const std::string& what)
{
    const double d = v.require(key, json::Value::Type::Number, what).number;
    fatalIf(!std::isfinite(d), ErrorCode::CorruptInput,
            what + ": " + key + " must be finite");
    return d;
}

std::string
requireString(const json::Value& v, const char* key,
              const std::string& what)
{
    return v.require(key, json::Value::Type::String, what).string;
}

} // namespace

std::string
TraceSpec::toJson() const
{
    // Every field that shapes the record sequence is serialized;
    // u64 values ride as JSON numbers, which is exact below 2^53 —
    // far above any instruction target or seed in use.
    switch (kind_) {
    case Kind::Borrowed:
        fatalIf(true, ErrorCode::Config,
                "borrowed trace spec '" + name_ +
                    "' points into process memory and cannot be "
                    "serialized; materialize it to a file spec first");
        break;
    case Kind::Suite:
    case Kind::HeldOut:
        return std::string("{\"kind\": ") +
               (kind_ == Kind::Suite ? "\"suite\"" : "\"heldOut\"") +
               ", \"index\": " + std::to_string(index_) +
               ", \"instructions\": " + std::to_string(instructions_) +
               ", \"seed\": " + std::to_string(seed_) + "}";
    case Kind::File:
        return "{\"kind\": \"file\", \"path\": " + json::str(path_) +
               "}";
    case Kind::Zipf:
        return "{\"kind\": \"zipf\", \"name\": " + json::str(zipf_.name) +
               ", \"instructions\": " +
               std::to_string(zipf_.instructions) +
               ", \"seed\": " + std::to_string(zipf_.seed) +
               ", \"dataBase\": " + std::to_string(zipf_.dataBase) +
               ", \"codeBase\": " + std::to_string(zipf_.codeBase) +
               ", \"keys\": " + std::to_string(zipf_.keys) +
               ", \"theta\": " + json::formatDouble(zipf_.theta) +
               ", \"storeProb\": " +
               json::formatDouble(zipf_.storeProb) +
               ", \"padsPerAccess\": " +
               std::to_string(zipf_.padsPerAccess) + "}";
    case Kind::BlockIo:
        return "{\"kind\": \"blkio\", \"name\": " +
               json::str(blockIo_.name) +
               ", \"instructions\": " +
               std::to_string(blockIo_.instructions) +
               ", \"seed\": " + std::to_string(blockIo_.seed) +
               ", \"dataBase\": " + std::to_string(blockIo_.dataBase) +
               ", \"codeBase\": " + std::to_string(blockIo_.codeBase) +
               ", \"volumeBytes\": " +
               std::to_string(blockIo_.volumeBytes) +
               ", \"hotFraction\": " +
               json::formatDouble(blockIo_.hotFraction) +
               ", \"seqProb\": " +
               json::formatDouble(blockIo_.seqProb) +
               ", \"hotProb\": " +
               json::formatDouble(blockIo_.hotProb) +
               ", \"writeProb\": " +
               json::formatDouble(blockIo_.writeProb) +
               ", \"maxRunBlocks\": " +
               std::to_string(blockIo_.maxRunBlocks) +
               ", \"padsPerRequest\": " +
               std::to_string(blockIo_.padsPerRequest) + "}";
    case Kind::PhaseMix: {
        std::string out = "{\"kind\": \"phaseMix\", \"name\": " +
                          json::str(name_) + ", \"instructions\": " +
                          std::to_string(instructions_) +
                          ", \"phaseInstructions\": " +
                          std::to_string(phaseInsts_) +
                          ", \"children\": [";
        for (std::size_t i = 0; i < children_.size(); ++i) {
            if (i)
                out += ", ";
            out += children_[i].toJson();
        }
        out += "]}";
        return out;
    }
    case Kind::Sampled:
        return "{\"kind\": \"sampled\", \"rateLog2\": " +
               std::to_string(rateLog2_) +
               ", \"child\": " + children_[0].toJson() + "}";
    }
    fatalIf(true, ErrorCode::Internal, "unreachable trace spec kind");
    return {};
}

TraceSpec
TraceSpec::fromJson(const json::Value& v, const std::string& what)
{
    fatalIf(!v.isObject(), ErrorCode::CorruptInput,
            what + ": trace spec must be a JSON object");
    const std::string kind = requireString(v, "kind", what);
    if (kind == "suite" || kind == "heldOut") {
        v.requireOnly({"kind", "index", "instructions", "seed"}, what);
        const auto index = requireUnsigned(v, "index", what);
        const auto insts = requireU64(v, "instructions", what);
        const auto seed = requireU64(v, "seed", what);
        return kind == "suite" ? suite(index, insts, seed)
                               : heldOut(index, insts, seed);
    }
    if (kind == "file") {
        v.requireOnly({"kind", "path"}, what);
        return file(requireString(v, "path", what));
    }
    if (kind == "zipf") {
        v.requireOnly({"kind", "name", "instructions", "seed", "dataBase",
                       "codeBase", "keys", "theta", "storeProb",
                       "padsPerAccess"},
                      what);
        ZipfParams p;
        p.name = requireString(v, "name", what);
        p.instructions = requireU64(v, "instructions", what);
        p.seed = requireU64(v, "seed", what);
        p.dataBase = requireU64(v, "dataBase", what);
        p.codeBase = requireU64(v, "codeBase", what);
        p.keys = requireU64(v, "keys", what);
        p.theta = requireDouble(v, "theta", what);
        p.storeProb = requireDouble(v, "storeProb", what);
        p.padsPerAccess = requireUnsigned(v, "padsPerAccess", what);
        return zipf(std::move(p));
    }
    if (kind == "blkio") {
        v.requireOnly({"kind", "name", "instructions", "seed", "dataBase",
                       "codeBase", "volumeBytes", "hotFraction", "seqProb",
                       "hotProb", "writeProb", "maxRunBlocks",
                       "padsPerRequest"},
                      what);
        BlockIoParams p;
        p.name = requireString(v, "name", what);
        p.instructions = requireU64(v, "instructions", what);
        p.seed = requireU64(v, "seed", what);
        p.dataBase = requireU64(v, "dataBase", what);
        p.codeBase = requireU64(v, "codeBase", what);
        p.volumeBytes = requireU64(v, "volumeBytes", what);
        p.hotFraction = requireDouble(v, "hotFraction", what);
        p.seqProb = requireDouble(v, "seqProb", what);
        p.hotProb = requireDouble(v, "hotProb", what);
        p.writeProb = requireDouble(v, "writeProb", what);
        p.maxRunBlocks = requireUnsigned(v, "maxRunBlocks", what);
        p.padsPerRequest = requireUnsigned(v, "padsPerRequest", what);
        return blockIo(std::move(p));
    }
    if (kind == "phaseMix") {
        v.requireOnly({"kind", "name", "instructions", "phaseInstructions",
                       "children"},
                      what);
        const std::string name = requireString(v, "name", what);
        const auto insts = requireU64(v, "instructions", what);
        const auto phase = requireU64(v, "phaseInstructions", what);
        const auto& kids =
            v.require("children", json::Value::Type::Array, what);
        std::vector<TraceSpec> children;
        children.reserve(kids.array.size());
        for (const auto& k : kids.array)
            children.push_back(fromJson(k, what));
        return phaseMix(name, insts, phase, std::move(children));
    }
    if (kind == "sampled") {
        v.requireOnly({"kind", "rateLog2", "child"}, what);
        const auto rate = requireUnsigned(v, "rateLog2", what);
        const auto& child =
            v.require("child", json::Value::Type::Object, what);
        return sampled(fromJson(child, what), rate);
    }
    fatalIf(true, ErrorCode::CorruptInput,
            what + ": unknown trace spec kind '" + kind + "'");
    return TraceSpec();
}

std::unique_ptr<TraceSource>
TraceSpec::open(const OpenOptions& opts) const
{
    const std::size_t chunk = opts.chunkRecords == 0
                                  ? kDefaultChunkRecords
                                  : opts.chunkRecords;
    std::unique_ptr<TraceSource> src;
    switch (kind_) {
    case Kind::Borrowed:
        src = std::make_unique<MaterializedTraceSource>(
            *borrowedTrace_, chunk);
        break;
    case Kind::Suite:
        src = std::make_unique<MaterializedTraceSource>(
            makeSuiteTrace(index_, instructions_, seed_), chunk);
        break;
    case Kind::HeldOut:
        src = std::make_unique<MaterializedTraceSource>(
            makeHeldOutTrace(index_, instructions_, seed_), chunk);
        break;
    case Kind::File:
        src = std::make_unique<FileTraceSource>(path_, opts.fileMode);
        break;
    case Kind::Zipf: {
        ZipfParams p = zipf_;
        p.chunkRecords = chunk;
        src = makeZipfSource(p);
        break;
    }
    case Kind::BlockIo: {
        BlockIoParams p = blockIo_;
        p.chunkRecords = chunk;
        src = makeBlockIoSource(p);
        break;
    }
    case Kind::PhaseMix: {
        std::vector<std::unique_ptr<TraceSource>> kids;
        kids.reserve(children_.size());
        for (const auto& c : children_)
            kids.push_back(c.open());
        src = makePhaseMix(name_, instructions_, phaseInsts_,
                           std::move(kids), chunk);
        break;
    }
    case Kind::Sampled: {
        // The child streams inline; decode-ahead (if requested) wraps
        // the sampled stream below so the hand-off buffers final
        // records, not soon-to-be-rewritten ones.
        OpenOptions childOpts = opts;
        childOpts.decodeAhead = false;
        src = std::make_unique<SampledTraceSource>(
            children_[0].open(childOpts), rateLog2_);
        break;
    }
    }
    return maybeDecodeAhead(std::move(src), opts);
}

} // namespace mrp::trace

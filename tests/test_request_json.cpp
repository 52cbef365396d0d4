/**
 * @file
 * Tests for the request codec (runner/request_json.hpp): round trips
 * of real requests, refusal of requests without a data identity, and
 * typed rejection of bad numbers and geometries; then seeded mutation
 * fuzzing of the decoder.
 *
 * The fuzz starts from four real requestJson documents (single-core
 * LRU, an MPPPB configuration payload, a 4-core mix, and a sampled
 * phase mix of the streaming trace families). Every single bit flip
 * and every truncation of them is tried, then seeded splices between
 * the documents, dictionary tokens cut from them, bit flips and cuts,
 * stacked one to three deep. A mutant must either be refused
 * with a typed FatalError (CorruptInput or Config) or be read exactly:
 * it decodes to a request whose requestJson is the same JSON (same
 * members, same values; nothing ignored, clamped or wrapped) and
 * re-encodes identically. The random part stops at an iteration cap or
 * a wall-clock budget, whichever comes first, so a slow (sanitized)
 * build still finishes inside its ctest timeout.
 */

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <climits>
#include <string>
#include <vector>

#include "runner/request_json.hpp"
#include "trace/stream_gen.hpp"
#include "trace/workloads.hpp"
#include "util/json_reader.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace mrp::runner {
namespace {

// The codec cases keep the suite name they had when the codec lived
// beside the work queue, so their test ids are unchanged.
using QueueTest = ::testing::Test;


runner::RunRequest
suiteRequest(unsigned index, const char* policy = "LRU")
{
    sim::SingleCoreConfig cfg;
    cfg.hierarchy.llcBytes = 128 * 1024;
    cfg.seed = 5;
    return runner::RunRequest::singleCore(
        trace::TraceSpec::suite(index, 40000),
        runner::PolicySpec::byName(policy), cfg);
}

TEST_F(QueueTest, RequestJsonRoundTripsSingleCore)
{
    auto req = suiteRequest(3, "SRRIP");
    req.label = "my-label";
    req.config = [&] {
        auto c = std::get<sim::SingleCoreConfig>(req.config);
        c.warmupFraction = 0.125;
        c.warmupInstructions = 2000;
        c.hierarchy.prefetcher.streams = 3;
        return c;
    }();

    const std::string j = requestJson(req);
    const auto back = requestFromJson(j, "test");
    EXPECT_EQ(back.label, "my-label");
    EXPECT_EQ(back.policy.name, "SRRIP");
    ASSERT_EQ(back.sources.size(), 1u);
    EXPECT_EQ(back.sources[0].displayName(),
              req.sources[0].displayName());
    const auto& c = std::get<sim::SingleCoreConfig>(back.config);
    EXPECT_EQ(c.hierarchy.llcBytes, 128u * 1024u);
    EXPECT_EQ(c.warmupInstructions, 2000u);
    EXPECT_EQ(c.seed, 5u);
    EXPECT_EQ(c.hierarchy.prefetcher.streams, 3u);
    // Canonical form: serialize(parse(x)) == x.
    EXPECT_EQ(requestJson(back), j);
}

TEST_F(QueueTest, RequestJsonRoundTripsMpppbPayloadAndMultiCore)
{
    core::MpppbConfig mc;
    mc.thresholds.tauBypass = -7;
    mc.bypassEnabled = false;
    std::array<trace::TraceSpec, 4> mix = {
        trace::TraceSpec::suite(1, 30000),
        trace::TraceSpec::suite(2, 30000),
        trace::TraceSpec::suite(3, 30000),
        trace::TraceSpec::suite(4, 30000),
    };
    sim::MultiCoreConfig cfg;
    cfg.measureCycles = 123456;
    auto req = runner::RunRequest::multiCore(
        std::move(mix), runner::PolicySpec::mpppb(mc), cfg);

    const std::string j = requestJson(req);
    const auto back = requestFromJson(j, "test");
    ASSERT_EQ(back.sources.size(), 4u);
    ASSERT_TRUE(back.isMultiCore());
    ASSERT_NE(back.policy.mpppbConfig, nullptr);
    EXPECT_EQ(back.policy.mpppbConfig->thresholds.tauBypass, -7);
    EXPECT_FALSE(back.policy.mpppbConfig->bypassEnabled);
    EXPECT_EQ(std::get<sim::MultiCoreConfig>(back.config).measureCycles,
              123456u);
    EXPECT_EQ(requestJson(back), j);
}

TEST_F(QueueTest, RequestJsonRefusesWhatCannotCrossTheWire)
{
    // Factory policies are closures.
    auto factory_req = suiteRequest(1);
    factory_req.policy = runner::PolicySpec::custom(
        "X", [](const cache::CacheGeometry&, unsigned) {
            return std::unique_ptr<cache::LlcPolicy>();
        });
    try {
        requestJson(factory_req);
        FAIL() << "factory policy must be refused";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::Config);
    }

    // Telemetry-enabled configs are process-local object graphs.
    auto telem_req = suiteRequest(1);
    telem_req.config = [&] {
        auto c = std::get<sim::SingleCoreConfig>(telem_req.config);
        c.telemetry.enabled = true;
        return c;
    }();
    try {
        requestJson(telem_req);
        FAIL() << "telemetry config must be refused";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::Config);
    }

    // Borrowed specs point into this process's memory.
    const auto t = trace::makeSuiteTrace(2, 20000);
    auto borrowed_req = runner::RunRequest::singleCore(
        trace::TraceSpec::borrowed(t), runner::PolicySpec::byName("LRU"));
    try {
        requestJson(borrowed_req);
        FAIL() << "borrowed spec must be refused";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::Config);
    }
}

/** @p j with the number after the first "key": replaced by @p value. */
std::string
withNumber(std::string j, const std::string& key, const std::string& value)
{
    const std::string k = "\"" + key + "\": ";
    const auto at = j.find(k);
    EXPECT_NE(at, std::string::npos) << key;
    if (at == std::string::npos)
        return j;
    const auto from = at + k.size();
    const auto to = j.find_first_not_of("0123456789", from);
    return j.replace(from, to - from, value);
}

TEST_F(QueueTest, RequestJsonRejectsBadHierarchyAsCorruptInput)
{
    const std::string j = requestJson(suiteRequest(2));
    const std::pair<const char*, const char*> bad[] = {
        {"streams", "0"},
        {"streams", "65"},
        {"streams", "4294967295"},
        {"streams", "18446744073709551615"},
        {"l1Ways", "0"},
        {"l1Bytes", "1000"},
        {"l2Ways", "4294967304"}, // wraps to 8 if cast unchecked
        {"l2Bytes", "196608"},    // 3 * 64KB: non-power-of-two sets
        {"llcWays", "3"},
        {"llcWays", "128"}, // valid geometry, but past PolicyCache::kMaxWays
        {"llcBytes", "0"},
        {"cores", "0"},
        {"cores", "65"},
        {"cores", "4294967297"}, // wraps to 1 if cast unchecked
    };
    for (const auto& [key, value] : bad) {
        SCOPED_TRACE(std::string(key) + " = " + value);
        const std::string tampered = withNumber(j, key, value);
        ASSERT_NE(tampered, j);
        try {
            requestFromJson(tampered, "test");
            ADD_FAILURE() << "accepted";
        } catch (const FatalError& e) {
            EXPECT_EQ(e.code(), ErrorCode::CorruptInput) << e.what();
        }
    }
    // The bounds themselves are accepted.
    for (const char* streams : {"1", "64"}) {
        const auto back =
            requestFromJson(withNumber(j, "streams", streams), "test");
        EXPECT_EQ(std::to_string(std::get<sim::SingleCoreConfig>(
                                     back.config)
                                     .hierarchy.prefetcher.streams),
                  streams);
    }
    const auto at_bounds = requestFromJson(
        withNumber(withNumber(j, "cores", "64"), "llcWays", "64"), "test");
    const auto& h =
        std::get<sim::SingleCoreConfig>(at_bounds.config).hierarchy;
    EXPECT_EQ(h.cores, cache::HierarchyConfig::kMaxCores);
    EXPECT_EQ(h.llcWays, 64u);
}

/** @p j with the first occurrence of @p from replaced by @p to. */
std::string
withText(std::string j, const std::string& from, const std::string& to)
{
    const auto at = j.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at == std::string::npos)
        return j;
    return j.replace(at, from.size(), to);
}

TEST_F(QueueTest, RequestJsonRejectsBadNumbersAsCorruptInput)
{
    core::MpppbConfig mc;
    mc.thresholds.tau = {10, 20, 30};
    mc.thresholds.pi = {1, 2, 3};
    auto req = suiteRequest(2);
    req.policy = runner::PolicySpec::mpppb(mc);
    const std::string j = requestJson(req);
    const std::string tau = "\"tau\": [10, ";
    const std::string pi = "\"pi\": [1, ";
    const std::string bad[] = {
        // Casting these to an integer unchecked is undefined.
        withNumber(j, "cores", "-1"),
        withNumber(j, "cores", "1e999"),
        withText(j, "\"seed\": 5}", "\"seed\": 18446744073709551616}"),
        withNumber(j, "l1Latency", "-3"),
        withNumber(j, "duelingPeriod", "4294967296"),
        // A count is whole.
        withNumber(j, "cores", "1.5"),
        withNumber(j, "samplerAssoc", "16.25"),
        // Array elements are checked numbers too.
        withText(j, pi, "\"pi\": [\"x\", "),
        withText(j, pi, "\"pi\": [-1, "),
        withText(j, tau, "\"tau\": [null, "),
        withText(j, tau, "\"tau\": [2147483648, "),
        // Used to be truncated to 32 bits.
        withNumber(j, "sampledSetsPerCore", "4294967360"),
        // Outside what the predictor accepts.
        withNumber(j, "weightBits", "0"),
        withNumber(j, "weightBits", "9"),
        withText(j, "\"confidenceClamp\": 255", "\"confidenceClamp\": -1"),
    };
    for (const std::string& tampered : bad) {
        SCOPED_TRACE(tampered);
        ASSERT_NE(tampered, j);
        try {
            requestFromJson(tampered, "test");
            ADD_FAILURE() << "accepted";
        } catch (const FatalError& e) {
            EXPECT_EQ(e.code(), ErrorCode::CorruptInput) << e.what();
        }
    }
    // The bounds themselves, and negative values where a field is
    // signed, are accepted.
    const auto back = requestFromJson(
        withText(withNumber(withNumber(j, "weightBits", "8"),
                            "confidenceClamp", "0"),
                 tau, "\"tau\": [-2147483648, "),
        "test");
    ASSERT_NE(back.policy.mpppbConfig, nullptr);
    EXPECT_EQ(back.policy.mpppbConfig->predictor.weightBits, 8u);
    EXPECT_EQ(back.policy.mpppbConfig->predictor.confidenceClamp, 0);
    EXPECT_EQ(back.policy.mpppbConfig->thresholds.tau[0], INT_MIN);
    EXPECT_EQ(requestFromJson(withNumber(j, "weightBits", "1"), "test")
                  .policy.mpppbConfig->predictor.weightBits,
              1u);
}

// --- decoder fuzzing ------------------------------------------------

using Clock = std::chrono::steady_clock;

constexpr int kRandomMutants = 20000;
constexpr auto kBudget = std::chrono::seconds(5);

/** requestJson documents of a single-core LRU run, an MPPPB payload,
 * a 4-core mix, and a run over a sampled phase mix of the streaming
 * families (every other trace spec kind but files). */
const std::vector<std::string>&
corpus()
{
    static const std::vector<std::string> docs = [] {
        auto lru = suiteRequest(2);
        lru.label = "scan";
        auto mpppb = suiteRequest(7);
        mpppb.policy = PolicySpec::mpppb(core::singleThreadMpppbConfig());
        sim::MultiCoreConfig mc;
        mc.measureCycles = 250000;
        const std::array<trace::TraceSpec, 4> specs = {
            trace::TraceSpec::suite(1, 30000),
            trace::TraceSpec::heldOut(2, 30000),
            trace::TraceSpec::suite(3, 30000, 9),
            trace::TraceSpec::suite(4, 30000)};
        const auto mix = RunRequest::multiCore(
            specs, PolicySpec::byName("Hawkeye"), mc);
        trace::ZipfParams zp;
        zp.instructions = 50000;
        trace::BlockIoParams bp;
        bp.instructions = 50000;
        const auto stream = RunRequest::singleCore(
            trace::TraceSpec::sampled(
                trace::TraceSpec::phaseMix(
                    "phase", 50000, 6250,
                    {trace::TraceSpec::zipf(zp),
                     trace::TraceSpec::blockIo(bp)}),
                3),
            PolicySpec::byName("SHiP"));
        return std::vector<std::string>{requestJson(lru),
                                        requestJson(mpppb),
                                        requestJson(mix),
                                        requestJson(stream)};
    }();
    return docs;
}

/** Same JSON: same types and values, objects compared as key sets. */
bool
sameJson(const json::Value& a, const json::Value& b)
{
    if (a.type != b.type)
        return false;
    switch (a.type) {
    case json::Value::Type::Null: return true;
    case json::Value::Type::Bool: return a.boolean == b.boolean;
    case json::Value::Type::Number: return a.number == b.number;
    case json::Value::Type::String: return a.string == b.string;
    case json::Value::Type::Array:
        if (a.array.size() != b.array.size())
            return false;
        for (std::size_t i = 0; i < a.array.size(); ++i)
            if (!sameJson(a.array[i], b.array[i]))
                return false;
        return true;
    case json::Value::Type::Object:
        if (a.members.size() != b.members.size())
            return false;
        for (const auto& [key, value] : a.members) {
            const json::Value* other = b.get(key);
            if (other == nullptr || !sameJson(value, *other))
                return false;
        }
        return true;
    }
    return false;
}

/**
 * The decoder contract: @p mutant is refused typed, or it decodes to
 * a request whose requestJson is the same JSON and is a fixed point.
 */
void
expectRejectedOrExact(const std::string& mutant, const std::string& what)
{
    RunRequest r;
    try {
        r = requestFromJson(mutant, "fuzz");
    } catch (const FatalError& e) {
        ASSERT_TRUE(e.code() == ErrorCode::CorruptInput ||
                    e.code() == ErrorCode::Config)
            << what << ": " << errorCodeName(e.code()) << ": "
            << e.what();
        return;
    }
    std::string again;
    try {
        again = requestJson(r);
    } catch (const FatalError& e) {
        FAIL() << what << ": accepted a request it cannot encode: "
               << e.what() << "\n" << mutant;
    }
    json::Value in, out;
    ASSERT_TRUE(json::tryParseJson(mutant, &in)) << what;
    ASSERT_TRUE(json::tryParseJson(again, &out))
        << what << ": re-encoded as malformed JSON\n" << again;
    ASSERT_TRUE(sameJson(in, out))
        << what << ": read as a different request\n"
        << mutant << "\n" << again;
    ASSERT_EQ(requestJson(requestFromJson(again, "again")), again)
        << what;
}

/** Pieces of @p doc to insert elsewhere: its JSON tokens, plus
 * numbers at and past the edges of what the decoder accepts. */
std::vector<std::string>
dictionaryOf(const std::string& doc)
{
    std::vector<std::string> tokens = {
        "{}", "[]", "\"\"", "null", "true", "false", "-1", "-0", "0.5",
        "1e999", "-1e999", "4294967296", "18446744073709551616",
        "9007199254740993", "\"\\u0000\"", "\\", ", "};
    std::size_t start = 0;
    for (std::size_t i = 0; i < doc.size(); ++i) {
        const char c = doc[i];
        if (c == '"' || c == ',' || c == ':' || c == '{' || c == '}' ||
            c == '[' || c == ']') {
            if (i > start)
                tokens.push_back(doc.substr(start, i - start));
            tokens.emplace_back(1, c);
            start = i + 1;
        }
    }
    return tokens;
}

/** Seeded mutations; each appends what it did to @p what. */
class Mutator
{
  public:
    explicit Mutator(std::uint64_t seed) : rng_(seed) {}

    std::size_t
    below(std::size_t n)
    {
        return static_cast<std::size_t>(rng_.below(n));
    }

    /** One mutation of @p s: splices take bytes from a corpus
     * document, and inserted tokens come from @p tokens. */
    std::string
    mutate(const std::string& s, const std::vector<std::string>& tokens,
           std::string& what)
    {
        const std::size_t at = below(s.size() + 1);
        switch (below(4)) {
        case 0: {
            if (s.empty())
                return s;
            std::string m = s;
            const std::size_t i = below(m.size());
            const unsigned bit = static_cast<unsigned>(below(8));
            m[i] = static_cast<char>(m[i] ^ (1u << bit));
            what += "; bit " + std::to_string(bit) + " of byte " +
                    std::to_string(i);
            return m;
        }
        case 1: {
            const auto& o = corpus()[below(corpus().size())];
            const std::size_t from = below(o.size() + 1);
            what += "; bytes to " + std::to_string(at) +
                    ", then a corpus document from " +
                    std::to_string(from);
            return s.substr(0, at) + o.substr(from);
        }
        case 2: {
            const auto& token = tokens[below(tokens.size())];
            const bool replace = below(2) == 1 && at < s.size();
            what += (replace ? "; replaced at " : "; inserted at ") +
                    std::to_string(at) + ": " + token;
            return s.substr(0, at) + token +
                   s.substr(replace ? at + 1 : at);
        }
        default:
            what += "; cut at " + std::to_string(at);
            return s.substr(0, at);
        }
    }

  private:
    Rng rng_;
};

TEST(RequestJsonFuzzTest, CorpusDocumentsRoundTrip)
{
    ASSERT_EQ(corpus().size(), 4u);
    for (const auto& doc : corpus()) {
        EXPECT_EQ(requestJson(requestFromJson(doc, "corpus")), doc);
        expectRejectedOrExact(doc, "unmutated");
    }
}

TEST(RequestJsonFuzzTest, EveryBitFlipIsRejectedOrExact)
{
    for (std::size_t d = 0; d < corpus().size(); ++d) {
        const auto& doc = corpus()[d];
        for (std::size_t i = 0; i < doc.size(); ++i) {
            for (unsigned bit = 0; bit < 8; ++bit) {
                std::string m = doc;
                m[i] = static_cast<char>(m[i] ^ (1u << bit));
                expectRejectedOrExact(
                    m, "document " + std::to_string(d) + ", bit " +
                           std::to_string(bit) + " of byte " +
                           std::to_string(i));
                if (HasFatalFailure())
                    return;
            }
        }
    }
}

TEST(RequestJsonFuzzTest, EveryTruncationIsCorruptInput)
{
    // A document is one JSON object, so no proper prefix parses.
    for (const auto& doc : corpus()) {
        for (std::size_t cut = 0; cut < doc.size(); ++cut) {
            try {
                requestFromJson(doc.substr(0, cut), "fuzz");
                FAIL() << "accepted a cut at " << cut << " of " << doc;
            } catch (const FatalError& e) {
                ASSERT_EQ(e.code(), ErrorCode::CorruptInput)
                    << "cut at " << cut << ": " << e.what();
            }
        }
    }
}

TEST(RequestJsonFuzzTest, SeededMutantsAreRejectedOrExact)
{
    std::vector<std::vector<std::string>> dictionaries;
    for (const auto& doc : corpus())
        dictionaries.push_back(dictionaryOf(doc));
    Mutator mut(0x2E9F);
    const auto until = Clock::now() + kBudget;
    int done = 0;
    for (; done < kRandomMutants && Clock::now() < until; ++done) {
        const std::size_t k = mut.below(corpus().size());
        std::string m = corpus()[k];
        std::string what = "document " + std::to_string(k);
        const std::size_t rounds = 1 + mut.below(3);
        for (std::size_t r = 0; r < rounds; ++r)
            m = mut.mutate(m, dictionaries[mut.below(dictionaries.size())],
                           what);
        expectRejectedOrExact(m, what);
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(done, 100);
}

} // namespace
} // namespace mrp::runner

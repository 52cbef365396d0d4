/**
 * @file
 * Unit tests for the utility layer: bit manipulation, saturating
 * counters, RNG, history buffer, numeric helpers, and CRC-32.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "util/bitfield.hpp"
#include "util/crc32.hpp"
#include "util/hash.hpp"
#include "util/history.hpp"
#include "util/json_reader.hpp"
#include "util/json_writer.hpp"
#include "util/logging.hpp"
#include "util/math_util.hpp"
#include "util/types.hpp"
#include "util/rng.hpp"
#include "util/sat_counter.hpp"
#include "util/strings.hpp"

namespace mrp {
namespace {

TEST(Bitfield, ExtractsInclusiveRanges)
{
    EXPECT_EQ(bits(0xFF, 0, 3), 0xFu);
    EXPECT_EQ(bits(0xF0, 4, 7), 0xFu);
    EXPECT_EQ(bits(0xABCD, 0, 15), 0xABCDu);
    EXPECT_EQ(bits(0x8000000000000000ull, 63, 63), 1u);
}

TEST(Bitfield, SwapsReversedBounds)
{
    // The paper prints pc(9,11,7,16,0) with B > E; ranges normalize.
    EXPECT_EQ(bits(0xF0, 7, 4), 0xFu);
}

TEST(Bitfield, OutOfRangeBitsReadZero)
{
    EXPECT_EQ(bits(0xFFFFFFFFFFFFFFFFull, 64, 70), 0u);
    EXPECT_EQ(bits(0xFFFFFFFFFFFFFFFFull, 60, 100),
              0xFu); // bits 60..63 only
}

TEST(Bitfield, FoldXorReducesWidth)
{
    // 0xAB ^ 0xCD = 0x66
    EXPECT_EQ(foldXor(0xABCD, 8), 0xABu ^ 0xCDu);
    EXPECT_EQ(foldXor(0, 8), 0u);
    EXPECT_EQ(foldXor(0x12345, 0), 0u);
    EXPECT_EQ(foldXor(42, 64), 42u);
}

TEST(Bitfield, FoldXorStaysInWidth)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.next();
        for (unsigned w : {1u, 2u, 5u, 8u, 13u})
            EXPECT_LT(foldXor(v, w), 1ull << w);
    }
}

TEST(Bitfield, Log2CeilAndPow2)
{
    EXPECT_EQ(log2Ceil(1), 0u);
    EXPECT_EQ(log2Ceil(2), 1u);
    EXPECT_EQ(log2Ceil(3), 2u);
    EXPECT_EQ(log2Ceil(256), 8u);
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(4096));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(48));
}

TEST(SatCounterTest, SaturatesAtBounds)
{
    SatCounter c(2, 0);
    EXPECT_EQ(c.maxValue(), 3u);
    c.decrement();
    EXPECT_EQ(c.value(), 0u);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 3u);
    EXPECT_TRUE(c.isSet());
    c.decrement();
    EXPECT_EQ(c.value(), 2u);
}

TEST(SatCounterTest, RejectsBadConstruction)
{
    EXPECT_THROW(SatCounter(0, 0), PanicError);
    EXPECT_THROW(SatCounter(2, 9), PanicError);
}

TEST(SignedWeightTest, SixBitRangeMatchesPaper)
{
    SignedWeight w(6, 0);
    EXPECT_EQ(w.minValue(), -32);
    EXPECT_EQ(w.maxValue(), 31);
    for (int i = 0; i < 100; ++i)
        w.increment();
    EXPECT_EQ(w.value(), 31);
    for (int i = 0; i < 200; ++i)
        w.decrement();
    EXPECT_EQ(w.value(), -32);
    w.set(1000);
    EXPECT_EQ(w.value(), 31);
    w.set(-1000);
    EXPECT_EQ(w.value(), -32);
}

TEST(RngTest, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(RngTest, BoundsRespected)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(r.below(17), 17u);
        const auto v = r.range(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
    EXPECT_THROW(r.below(0), PanicError);
}

TEST(RngTest, UniformCoversRange)
{
    Rng r(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(r.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(HistoryTest, MostRecentFirst)
{
    History<int> h(4, -1);
    EXPECT_EQ(h.recent(0), -1); // unwritten slots read the fill value
    h.push(1);
    h.push(2);
    h.push(3);
    EXPECT_EQ(h.recent(0), 3);
    EXPECT_EQ(h.recent(1), 2);
    EXPECT_EQ(h.recent(2), 1);
    h.push(4);
    h.push(5); // evicts 1
    EXPECT_EQ(h.recent(0), 5);
    EXPECT_EQ(h.recent(3), 2);
    EXPECT_THROW(h.recent(4), PanicError);
}

TEST(HistoryTest, MatchesADequeReference)
{
    // Capacities around the wrap point of a small and a 2^k+1 buffer.
    for (const std::size_t capacity : {1u, 2u, 17u, 18u, 19u}) {
        History<int> h(capacity, -1);
        std::deque<int> ref(capacity, -1); // front is the most recent
        for (int i = 0; i < 1000; ++i) {
            h.push(i);
            ref.push_front(i);
            ref.pop_back();
            for (std::size_t k = 0; k < capacity; ++k)
                ASSERT_EQ(h.recent(k), ref[k])
                    << "capacity " << capacity << " push " << i
                    << " depth " << k;
        }
        EXPECT_EQ(h.capacity(), capacity);
        EXPECT_THROW(h.recent(capacity), PanicError);
    }
}

TEST(MathUtil, GeomeanAndMean)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_THROW(geomean({}), FatalError);
    EXPECT_THROW(geomean({0.0}), FatalError);
    EXPECT_THROW(mean({}), FatalError);
}

TEST(StringsTest, SplitCommasKeepsEveryEmptyField)
{
    struct Case
    {
        const char* text;
        std::vector<std::string> fields;
    };
    const Case cases[] = {
        {"", {""}},
        {"a", {"a"}},
        {"a,b", {"a", "b"}},
        {"a,,b", {"a", "", "b"}},
        {"a,", {"a", ""}},
        {",a", {"", "a"}},
        {",", {"", ""}},
        {"LRU,MPPPB,MIN", {"LRU", "MPPPB", "MIN"}},
    };
    for (const Case& c : cases)
        EXPECT_EQ(splitCommas(c.text), c.fields) << "\"" << c.text << "\"";
}

TEST(HashTest, MixIsDeterministicAndSpreads)
{
    EXPECT_EQ(mix64(123), mix64(123));
    std::set<std::uint32_t> idx;
    for (std::uint64_t i = 0; i < 4096; ++i)
        idx.insert(hashToIndex(i, 256));
    EXPECT_EQ(idx.size(), 256u);
    EXPECT_EQ(hashToIndex(99, 1), 0u);
}

TEST(HashTest, SkewedHashesAreIndependent)
{
    int collisions = 0;
    for (std::uint64_t pc = 0; pc < 1000; ++pc)
        if (skewedHash(pc, 0) % 4096 == skewedHash(pc, 1) % 4096)
            ++collisions;
    EXPECT_LT(collisions, 10);
}

TEST(Types, BlockArithmetic)
{
    EXPECT_EQ(blockAddr(0), 0u);
    EXPECT_EQ(blockAddr(63), 0u);
    EXPECT_EQ(blockAddr(64), 1u);
    EXPECT_EQ(blockOffset(0x1234), 0x34u & 63u);
    EXPECT_EQ(kBlockBytes, 64u);
}

/** The textbook bitwise CRC-32: the reference both kernels must match. */
std::uint32_t
bitwiseCrcStep(std::uint32_t state, const unsigned char* p, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        state ^= p[i];
        for (int k = 0; k < 8; ++k)
            state = (state & 1u) ? 0xEDB88320u ^ (state >> 1) : state >> 1;
    }
    return state;
}

std::vector<unsigned char>
randomBytes(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<unsigned char> v(n);
    for (auto& b : v)
        b = static_cast<unsigned char>(rng.next());
    return v;
}

/** Bytes 0, 1, ..., 255: long enough for the fold kernel. */
std::vector<unsigned char>
byteRamp()
{
    std::vector<unsigned char> v(256);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<unsigned char>(i);
    return v;
}

/**
 * 1000 patterned bytes: fifteen 64-byte blocks, two 16-byte blocks and
 * an 8-byte tail, so each part of the fold kernel contributes.
 */
std::vector<unsigned char>
pattern1000()
{
    std::vector<unsigned char> v(1000);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<unsigned char>(i * 31 + 7);
    return v;
}

// Check values of the byte ramp and the pattern, as computed by zlib's
// crc32 (an implementation independent of this one).
constexpr std::uint32_t kRampCrc = 0x29058C73u;
constexpr std::uint32_t kPatternCrc = 0x8902161Eu;

TEST(Crc32Test, StandardCheckValue)
{
    EXPECT_EQ(Crc32::of("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(Crc32::of(nullptr, 0), 0u);
    const auto ramp = byteRamp();
    EXPECT_EQ(Crc32::of(ramp.data(), ramp.size()), kRampCrc);
    const auto pattern = pattern1000();
    EXPECT_EQ(Crc32::of(pattern.data(), pattern.size()), kPatternCrc);
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment)
{
    constexpr std::size_t kMaxLen = 4096;
    const auto bytes = randomBytes(kMaxLen + 16, 0xC4C32);
    for (std::size_t align = 0; align < 16; ++align) {
        const unsigned char* base = bytes.data() + align;
        // The reference state advances one byte per length, so each
        // prefix costs one bitwise step.
        std::uint32_t ref = 0xFFFFFFFFu;
        for (std::size_t len = 0; len <= kMaxLen; ++len) {
            if (len > 0)
                ref = bitwiseCrcStep(ref, base + len - 1, 1);
            ASSERT_EQ(Crc32::of(base, len), ~ref)
                << "align " << align << " len " << len;
        }
    }
}

TEST(Crc32Test, IncrementalUpdatesMatchOneShotAtRandomSplits)
{
    Rng rng(77);
    for (int trial = 0; trial < 500; ++trial) {
        const std::size_t len = rng.below(4097);
        const auto bytes = randomBytes(len, rng.next());
        const std::uint32_t want =
            ~bitwiseCrcStep(0xFFFFFFFFu, bytes.data(), len);
        Crc32 crc;
        std::size_t at = 0;
        while (at < len) {
            const std::size_t piece = rng.below(len - at + 1);
            crc.update(bytes.data() + at, piece);
            at += piece;
        }
        ASSERT_EQ(crc.value(), want) << "trial " << trial;
    }
}

/** One CRC-32 kernel, run on its own rather than through Crc32. */
struct Crc32KernelCase
{
    const char* name;
    std::uint32_t (*run)(std::uint32_t, const void*, std::size_t);
    bool (*available)();
};

/** Names the case in test listings (not its function addresses). */
void
PrintTo(const Crc32KernelCase& c, std::ostream* os)
{
    *os << c.name;
}

bool
alwaysAvailable()
{
    return true;
}

class Crc32KernelTest : public ::testing::TestWithParam<Crc32KernelCase>
{
  protected:
    void
    SetUp() override
    {
        if (!GetParam().available())
            GTEST_SKIP() << GetParam().name
                         << " kernel needs PCLMULQDQ and SSE4.1, which "
                            "this CPU lacks";
    }

    std::uint32_t
    run(std::uint32_t state, const void* data, std::size_t size) const
    {
        return GetParam().run(state, data, size);
    }
};

TEST_P(Crc32KernelTest, CheckValues)
{
    EXPECT_EQ(~run(0xFFFFFFFFu, "123456789", 9), 0xCBF43926u);
    EXPECT_EQ(~run(0xFFFFFFFFu, nullptr, 0), 0u);
    const auto ramp = byteRamp();
    EXPECT_EQ(~run(0xFFFFFFFFu, ramp.data(), ramp.size()), kRampCrc);
    const auto pattern = pattern1000();
    EXPECT_EQ(~run(0xFFFFFFFFu, pattern.data(), pattern.size()),
              kPatternCrc);
}

TEST_P(Crc32KernelTest, MatchesBitwiseReferenceAtEveryLengthAndAlignment)
{
    constexpr std::size_t kMaxLen = 4096;
    const auto bytes = randomBytes(kMaxLen + 16, 0xC4C32);
    Rng rng(0xF01D);
    for (std::size_t align = 0; align < 16; ++align) {
        const unsigned char* base = bytes.data() + align;
        // Alignment 0 starts from the initial register, the others from
        // arbitrary states, as a mid-stream update would.
        const auto start = align == 0 ? 0xFFFFFFFFu
                                      : static_cast<std::uint32_t>(rng.next());
        std::uint32_t ref = start;
        for (std::size_t len = 0; len <= kMaxLen; ++len) {
            if (len > 0)
                ref = bitwiseCrcStep(ref, base + len - 1, 1);
            ASSERT_EQ(run(start, base, len), ref)
                << "align " << align << " len " << len;
        }
    }
}

TEST_P(Crc32KernelTest, IncrementalSplitsFromArbitraryStateMatchReference)
{
    Rng rng(78);
    for (int trial = 0; trial < 500; ++trial) {
        const std::size_t len = rng.below(4097);
        const auto bytes = randomBytes(len, rng.next());
        const auto start = static_cast<std::uint32_t>(rng.next());
        const std::uint32_t want = bitwiseCrcStep(start, bytes.data(), len);
        std::uint32_t state = start;
        std::size_t at = 0;
        while (at < len) {
            const std::size_t piece = rng.below(len - at + 1);
            state = run(state, bytes.data() + at, piece);
            at += piece;
        }
        ASSERT_EQ(state, want) << "trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Crc32KernelTest,
    ::testing::Values(
        Crc32KernelCase{"Table", detail::crc32Table, alwaysAvailable},
        Crc32KernelCase{"Fold", detail::crc32Fold,
                        detail::crc32FoldAvailable}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(JsonReaderTest, AcceptsOnlyRfc8259NumbersAndStrings)
{
    struct Case
    {
        const char* text;
        bool ok;
    };
    const Case cases[] = {
        // Numbers: [-] (0 | [1-9][0-9]*) [. [0-9]+] [(e|E) [+|-] [0-9]+]
        {"0", true},      {"-0", true},     {"7", true},
        {"28", true},     {"-28", true},    {"0.5", true},
        {"10.25", true},  {"1e5", true},    {"1E5", true},
        {"1e+5", true},   {"1e-5", true},   {"-1.5e-07", true},
        {"1e+20", true},  {"028", false},   {"00", false},
        {"-028", false},  {"+5", false},    {"1.", false},
        {".5", false},    {"-.5", false},   {"-", false},
        {"1e", false},    {"1e+", false},   {"1.e5", false},
        {"0x10", false},  {"1.5.5", false}, {"--1", false},
        {"Infinity", false}, {"NaN", false}, {"inf", false},
        {"- 1", false},
        // Strings: control characters must be escaped.
        {"\"a b\"", true},
        {"\"tab\\tnewline\\n\"", true},
        {"\"\\u0001\"", true},
        {"\"raw\ttab\"", false},
        {"\"raw\nnewline\"", false},
        {"\"raw\x01 byte\"", false},
        {"\"raw\x1f byte\"", false},
        {"\"\x7f is fine\"", true},
        // Inside documents.
        {"[0, -1.5, 2e3]", true},
        {"[01]", false},
        {"{\"a\": +1}", false},
        {"{\"a\": 1.}", false},
        {"{\"k\\u0000\": 1}", true},
        {"{\"k\x02\": 1}", false},
    };
    for (const auto& c : cases) {
        json::Value v;
        EXPECT_EQ(json::tryParseJson(c.text, &v), c.ok)
            << "'" << c.text << "'";
    }
    json::Value v;
    ASSERT_TRUE(json::tryParseJson("-1.5e-07", &v));
    EXPECT_EQ(v.number, -1.5e-07);
    ASSERT_TRUE(json::tryParseJson("\"tab\\tend\"", &v));
    EXPECT_EQ(v.string, "tab\tend");
}

TEST(JsonReaderTest, EveryFormattedDoubleParsesBack)
{
    // Whatever formatDouble emits for a finite double is a JSON number
    // that reads back as the same double.
    std::vector<double> values = {
        0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 2.5e-7, 1e20, 123456789.0,
        6.02214076e23, std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest()};
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        const double mag = std::ldexp(1.0 + static_cast<double>(
                                                rng.below(1u << 30)) /
                                                    (1u << 30),
                                      static_cast<int>(rng.below(200)) -
                                          100);
        values.push_back(rng.below(2) != 0 ? mag : -mag);
    }
    for (const double d : values) {
        const std::string text = json::formatDouble(d);
        json::Value v;
        ASSERT_TRUE(json::tryParseJson(text, &v)) << text;
        EXPECT_EQ(v.number, d) << text;
    }
}

TEST(JsonReaderTest, CommittedGoldensParse)
{
    // The telemetry and trace-event goldens hold every kind of number
    // the exporters write.
    const auto dir = std::filesystem::path(__FILE__).parent_path() /
                     "golden";
    std::size_t files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".json")
            continue;
        std::ifstream f(entry.path(), std::ios::binary);
        const std::string text{std::istreambuf_iterator<char>(f),
                               std::istreambuf_iterator<char>()};
        json::Value v;
        EXPECT_TRUE(json::tryParseJson(text, &v)) << entry.path();
        ++files;
    }
    EXPECT_GE(files, 3u);
}

} // namespace
} // namespace mrp

/**
 * @file
 * Tests for the trace substrate: record packing, the builder, the
 * compact in-memory store (differential against the records it was
 * given), the workload registry, and mix generation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <unistd.h>
#include <vector>

#include "trace/builder.hpp"
#include "trace/mix.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"
#include "trace/stream_reader.hpp"
#include "trace/trace_io.hpp"
#include "trace/workloads.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace mrp::trace {
namespace {

TEST(RecordTest, PacksAndUnpacksMemOps)
{
    const Addr a = 0x0000123456789ABCull;
    const Record r = Record::memOp(0x400100, Op::Load, a, true);
    EXPECT_EQ(r.pc(), 0x400100u);
    EXPECT_EQ(r.op(), Op::Load);
    EXPECT_EQ(r.addr(), a);
    EXPECT_TRUE(r.dependsOnPrevLoad());
    EXPECT_TRUE(r.isMem());
    EXPECT_EQ(r.count(), 1u);

    const Record s = Record::memOp(0x400104, Op::Store, 0x40, false);
    EXPECT_EQ(s.op(), Op::Store);
    EXPECT_FALSE(s.dependsOnPrevLoad());
}

TEST(RecordTest, NonMemCarriesCount)
{
    const Record r = Record::nonMem(0x400200, 17);
    EXPECT_FALSE(r.isMem());
    EXPECT_EQ(r.count(), 17u);
    EXPECT_THROW(r.addr(), PanicError);
    EXPECT_THROW(Record::nonMem(0x400200, 0), PanicError);
}

TEST(RecordTest, RecordIs16Bytes)
{
    EXPECT_EQ(sizeof(Record), 16u);
}

TEST(BuilderTest, CountsInstructions)
{
    TraceBuilder b("t", 0x400000, 1);
    b.load(1, 0x1000);
    b.pad(10);
    b.store(2, 0x2000);
    EXPECT_EQ(b.instructions(), 12u);
    const Trace t = std::move(b).build();
    EXPECT_EQ(t.instructions(), 12u);
    EXPECT_EQ(t.memOps(), 2u);
    EXPECT_EQ(t.records().size(), 3u);
}

TEST(BuilderTest, SitesAreStablePcs)
{
    TraceBuilder b("t", 0x400000, 1);
    EXPECT_EQ(b.site(0), 0x400000u);
    EXPECT_EQ(b.site(3), 0x40000Cu);
}

// ---------------------------------------------------------------------
// The compact store, differentially: every way of reading a Trace back
// must give exactly the records it was built from.

constexpr Pc kMaxPc = std::numeric_limits<Pc>::max();
constexpr Addr kMaxAddr = (Addr{1} << 48) - 1;
constexpr std::uint32_t kMaxCount = std::numeric_limits<std::uint32_t>::max();

/** Records bytewise equal (Record is 16 bytes without padding). */
bool
same(const Record& a, const Record& b)
{
    return std::memcmp(&a, &b, sizeof(Record)) == 0;
}

InstCount
countOf(const std::vector<Record>& records)
{
    InstCount n = 0;
    for (const auto& r : records)
        n += r.count();
    return n;
}

/**
 * @p n records drawn from @p pcs, covering every field's extremes:
 * addresses 0 and 2^48-1, non-memory counts 1 and 2^32-1, both dep
 * values, and random values in between.
 */
std::vector<Record>
fieldExtremes(std::size_t n, const std::vector<Pc>& pcs, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Record> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Pc pc = pcs[rng.below(pcs.size())];
        const auto kind = rng.below(3);
        if (kind == 2) {
            const std::uint32_t counts[] = {
                1, kMaxCount,
                static_cast<std::uint32_t>(rng.below(kMaxCount)) + 1};
            out.push_back(Record::nonMem(pc, counts[rng.below(3)]));
            continue;
        }
        const Addr addrs[] = {0, kMaxAddr, rng.next() & kMaxAddr};
        out.push_back(Record::memOp(pc, kind == 0 ? Op::Load : Op::Store,
                                    addrs[rng.below(3)],
                                    rng.below(2) == 1));
    }
    return out;
}

/** PCs 0 and 2^64-1 plus @p random random 64-bit values. */
std::vector<Pc>
pcPool(std::size_t random, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Pc> pcs = {0, kMaxPc};
    for (std::size_t i = 0; i < random; ++i)
        pcs.push_back(rng.next());
    return pcs;
}

/** Every record of @p t, through operator[] and through iteration,
 * equals @p want; so do the totals. */
void
expectHolds(const Trace& t, const std::vector<Record>& want)
{
    EXPECT_EQ(t.instructions(), countOf(want));
    const auto recs = t.records();
    ASSERT_EQ(recs.size(), want.size());
    InstCount mem = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_TRUE(same(recs[i], want[i])) << "record " << i;
        mem += want[i].isMem() ? 1 : 0;
    }
    EXPECT_EQ(t.memOps(), mem);
    std::size_t i = 0;
    for (const Record r : recs)
        ASSERT_TRUE(same(r, want[i++])) << "iterated record " << i - 1;
    EXPECT_EQ(i, want.size());
}

/** Everything @p source serves, in order. */
std::vector<Record>
drain(TraceSource& source)
{
    std::vector<Record> out;
    for (auto c = source.nextChunk(); !c.empty(); c = source.nextChunk())
        out.insert(out.end(), c.begin(), c.end());
    return out;
}

std::string
readFile(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(f),
            std::istreambuf_iterator<char>()};
}

TEST(CompactTraceTest, HoldsEveryFieldExtremeAtEveryBlockBoundary)
{
    constexpr std::size_t B = Trace::kBlockRecords;
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, B - 1, B, B + 1, 3 * B + 5}) {
        const auto want = fieldExtremes(n, pcPool(40, n), 7 + n);
        expectHolds(Trace("t", want, countOf(want)), want);
    }
}

TEST(CompactTraceTest, HoldsMorePcsThanOneBlockCanName)
{
    // Every record its own random PC: each full block uses all 4096
    // slots of its table, and the trace names about 3.5 blocks' worth.
    constexpr std::size_t B = Trace::kBlockRecords;
    Rng rng(99);
    std::vector<Record> want;
    for (std::size_t i = 0; i < 3 * B + B / 2; ++i)
        want.push_back(Record::memOp(rng.next(), Op::Load,
                                     rng.next() & kMaxAddr, i % 2 == 0));
    want[0] = Record::memOp(0, Op::Store, 0);
    want[B - 1] = Record::nonMem(kMaxPc, kMaxCount);
    want[B] = Record::memOp(kMaxPc, Op::Load, kMaxAddr, true);
    expectHolds(Trace("pcs", want, countOf(want)), want);

    // More distinct PCs overall than one block holds, but each block
    // only draws from part of them.
    const auto pool = pcPool(9000, 5);
    const auto mixed = fieldExtremes(5 * B, pool, 6);
    expectHolds(Trace("mixed", mixed, countOf(mixed)), mixed);
}

TEST(CompactTraceTest, MaterializeStoresWhatItIsServed)
{
    // A generated trace, served in odd 7-record chunks and re-encoded
    // by materialize(), holds the same records as the original.
    const Trace t = makeSuiteTrace(22, 40000);
    const auto want = [&] {
        const auto r = t.records();
        return std::vector<Record>(r.begin(), r.end());
    }();
    MaterializedTraceSource src(t, 7);
    expectHolds(materialize(src), want);
}

TEST(CompactTraceTest, ChunkedDeliveryAndResetReplayTheInput)
{
    constexpr std::size_t B = Trace::kBlockRecords;
    const auto want = fieldExtremes(4 * B + 3, pcPool(6000, 3), 4);
    const Trace t("chunks", want, countOf(want));
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                    std::size_t{2048}, std::size_t{65536}}) {
        MaterializedTraceSource src(t, chunk);
        EXPECT_EQ(src.instructions(), countOf(want));
        std::vector<Record> got;
        for (auto c = src.nextChunk(); !c.empty(); c = src.nextChunk()) {
            EXPECT_LE(c.size(), chunk);
            got.insert(got.end(), c.begin(), c.end());
        }
        ASSERT_EQ(got.size(), want.size()) << "chunk " << chunk;
        for (std::size_t i = 0; i < want.size(); ++i)
            ASSERT_TRUE(same(got[i], want[i]))
                << "chunk " << chunk << ", record " << i;

        // reset() after the end, and again mid-stream.
        src.reset();
        EXPECT_EQ(drain(src).size(), want.size());
        src.reset();
        (void)src.nextChunk();
        src.reset();
        const auto again = drain(src);
        ASSERT_EQ(again.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i)
            ASSERT_TRUE(same(again[i], want[i]))
                << "replay, chunk " << chunk << ", record " << i;
    }
}

TEST(CompactTraceTest, SaveTraceWritesTheBytesOfTheInput)
{
    // saveTrace decodes the store chunk by chunk; the file must be the
    // one a writer fed the original records produces.
    constexpr std::size_t B = Trace::kBlockRecords;
    const auto want = fieldExtremes(20 * B + 11, pcPool(5000, 8), 9);
    const Trace t("save", want, countOf(want));
    const std::string tag = std::to_string(::getpid());
    const std::string saved = "compact_saved_" + tag + ".mrpt";
    const std::string direct = "compact_direct_" + tag + ".mrpt";
    saveTrace(saved, t);
    {
        ChunkedTraceWriter w(direct, t.name());
        w.append(want);
        w.finish();
    }
    const std::string a = readFile(saved);
    const std::string b = readFile(direct);
    std::remove(saved.c_str());
    std::remove(direct.c_str());
    EXPECT_GT(a.size(), want.size() * sizeof(Record));
    EXPECT_TRUE(a == b) << "saveTrace bytes differ from the writer's";
}

TEST(CompactTraceTest, RejectsAWrongInstructionTotal)
{
    const std::vector<Record> recs = {Record::memOp(0x400, Op::Load, 64),
                                      Record::nonMem(0x404, 10)};
    EXPECT_NO_THROW(Trace("ok", recs, 11));
    for (const InstCount wrong : {InstCount{0}, InstCount{10},
                                  InstCount{12}}) {
        try {
            Trace("bad", recs, wrong);
            FAIL() << "accepted a total of " << wrong;
        } catch (const FatalError& e) {
            EXPECT_EQ(e.code(), ErrorCode::CorruptInput) << e.what();
        }
    }
}

/** A source whose instructions() disagrees with its records. */
class LyingSource final : public TraceSource
{
  public:
    explicit LyingSource(InstCount claimed) : claimed_(claimed) {}
    const std::string& name() const override { return name_; }
    InstCount instructions() const override { return claimed_; }
    std::span<const Record>
    nextChunk() override
    {
        if (served_)
            return {};
        served_ = true;
        return records_;
    }
    void reset() override { served_ = false; }

  private:
    std::string name_ = "liar";
    InstCount claimed_;
    std::vector<Record> records_ = {Record::nonMem(0x400, 5)};
    bool served_ = false;
};

TEST(CompactTraceTest, MaterializeRejectsASourceThatMiscounts)
{
    LyingSource honest(5);
    EXPECT_EQ(materialize(honest).instructions(), 5u);
    LyingSource liar(6);
    try {
        (void)materialize(liar);
        FAIL() << "materialize accepted a miscounted source";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::CorruptInput) << e.what();
    }
}

TEST(CompactTraceTest, RejectsRecordsWithReservedBitsSet)
{
    // Only raw file bytes can make such a record; the store has no
    // room for bits 51-63 of the packed word, so it must refuse it.
    const Record good = Record::memOp(0x400, Op::Load, 64);
    Record bad;
    std::uint64_t raw[2] = {};
    std::memcpy(raw, &good, sizeof(raw));
    raw[1] |= std::uint64_t{1} << 57;
    std::memcpy(&bad, raw, sizeof(raw));
    try {
        Trace("reserved", {good, bad}, 2);
        FAIL() << "stored a record with reserved bits set";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::CorruptInput) << e.what();
    }
}

TEST(WorkloadsTest, SuiteHas33Benchmarks)
{
    EXPECT_EQ(suiteSize(), 33u); // the paper's benchmark count
    EXPECT_EQ(heldOutSize(), 15u);
}

TEST(WorkloadsTest, NamesAreUnique)
{
    std::set<std::string> names;
    for (unsigned i = 0; i < suiteSize(); ++i)
        names.insert(suiteName(i));
    for (unsigned i = 0; i < heldOutSize(); ++i)
        names.insert(heldOutName(i));
    EXPECT_EQ(names.size(), suiteSize() + heldOutSize());
}

TEST(WorkloadsTest, GenerationIsDeterministic)
{
    const Trace a = makeSuiteTrace(7, 20000);
    const Trace b = makeSuiteTrace(7, 20000);
    ASSERT_EQ(a.records().size(), b.records().size());
    for (std::size_t i = 0; i < a.records().size(); ++i) {
        EXPECT_EQ(a.records()[i].pc(), b.records()[i].pc());
        EXPECT_EQ(a.records()[i].op(), b.records()[i].op());
    }
}

TEST(WorkloadsTest, RejectsOutOfRangeIndices)
{
    EXPECT_THROW(makeSuiteTrace(suiteSize(), 1000), FatalError);
    EXPECT_THROW(makeHeldOutTrace(heldOutSize(), 1000), FatalError);
    EXPECT_THROW(suiteName(suiteSize()), FatalError);
}

/** Property sweep: every benchmark generates a sane trace. */
class EverySuiteBenchmark : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(EverySuiteBenchmark, GeneratesCloseToTargetLength)
{
    const InstCount target = 30000;
    const Trace t = makeSuiteTrace(GetParam(), target);
    EXPECT_GE(t.instructions(), target);
    EXPECT_LE(t.instructions(), target + 2000);
    EXPECT_GT(t.memOps(), 0u);
}

TEST_P(EverySuiteBenchmark, AddressesStayInPrivateRegion)
{
    const unsigned idx = GetParam();
    const Trace t = makeSuiteTrace(idx, 20000);
    const Addr base = 0x100000000ull + idx * 0x40000000ull;
    for (const auto& r : t.records()) {
        if (!r.isMem())
            continue;
        EXPECT_GE(r.addr(), base);
        EXPECT_LT(r.addr(), base + 0x40000000ull);
    }
}

INSTANTIATE_TEST_SUITE_P(Suite, EverySuiteBenchmark,
                         ::testing::Range(0u, 33u),
                         [](const auto& info) {
                             std::string n = suiteName(info.param) + "_" +
                                             std::to_string(info.param);
                             for (char& c : n)
                                 if (c == '.')
                                     c = '_';
                             return n;
                         });

class EveryHeldOutBenchmark : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(EveryHeldOutBenchmark, Generates)
{
    const Trace t = makeHeldOutTrace(GetParam(), 20000);
    EXPECT_GE(t.instructions(), 20000u);
    EXPECT_GT(t.memOps(), 0u);
}

INSTANTIATE_TEST_SUITE_P(HeldOut, EveryHeldOutBenchmark,
                         ::testing::Range(0u, 15u));

TEST(MixTest, MixesDrawWithoutReplacement)
{
    const auto mixes = makeMixes(200);
    EXPECT_EQ(mixes.size(), 200u);
    for (const auto& m : mixes) {
        std::set<unsigned> uniq(m.benchmarks.begin(),
                                m.benchmarks.end());
        EXPECT_EQ(uniq.size(), 4u);
        for (const unsigned b : m.benchmarks)
            EXPECT_LT(b, suiteSize());
    }
}

TEST(MixTest, Deterministic)
{
    const auto a = makeMixes(50, 99);
    const auto b = makeMixes(50, 99);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].benchmarks, b[i].benchmarks);
}

TEST(MixTest, SplitIsDisjointPrefix)
{
    const auto split = makeMixSplit(10, 30);
    EXPECT_EQ(split.train.size(), 10u);
    EXPECT_EQ(split.test.size(), 30u);
    const auto all = makeMixes(40);
    EXPECT_EQ(split.train[0].benchmarks, all[0].benchmarks);
    EXPECT_EQ(split.test[0].benchmarks, all[10].benchmarks);
}

TEST(MixTest, NameJoinsBenchmarks)
{
    Mix m{{0, 1, 2, 3}};
    const auto n = m.name();
    EXPECT_NE(n.find(suiteName(0)), std::string::npos);
    EXPECT_NE(n.find('+'), std::string::npos);
}

TEST(MixTest, MixesCoverTheSuite)
{
    // With hundreds of mixes, every benchmark should appear somewhere.
    const auto mixes = makeMixes(300);
    std::set<unsigned> seen;
    for (const auto& m : mixes)
        for (const unsigned b : m.benchmarks)
            seen.insert(b);
    EXPECT_EQ(seen.size(), suiteSize());
}

} // namespace
} // namespace mrp::trace

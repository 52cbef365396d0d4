/**
 * @file
 * Streaming-trace conformance suite: the TraceSource contract
 * (chunking invariance, reset replay), the chunked v3 file format
 * (round trips, per-chunk CRC localization, atomic writes), the
 * decode-ahead wrapper (equivalence, fault position, abandonment), and
 * the generator families (exact budgets, Zipf skew sanity).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "trace/spec.hpp"
#include "trace/stream_gen.hpp"
#include "trace/stream_reader.hpp"
#include "trace/wire_format.hpp"
#include "trace/workloads.hpp"
#include "util/fault_injection.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace {

using namespace mrp;
using trace::Record;

/** Pull @p source dry; returns every record in delivery order. */
std::vector<Record>
drain(trace::TraceSource& source)
{
    std::vector<Record> out;
    for (;;) {
        const auto chunk = source.nextChunk();
        if (chunk.empty())
            return out;
        out.insert(out.end(), chunk.begin(), chunk.end());
    }
}

InstCount
sumInsts(const std::vector<Record>& records)
{
    InstCount n = 0;
    for (const auto& r : records)
        n += r.count();
    return n;
}

/** Records are 16-byte PODs without padding; bytewise equality is
 * exactly record equality. */
bool
sameRecords(const std::vector<Record>& a, const std::vector<Record>& b)
{
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(Record)) == 0);
}

std::vector<Record>
recordsOf(const trace::Trace& t)
{
    const auto r = t.records();
    return {r.begin(), r.end()};
}

trace::ZipfParams
smallZipf(InstCount insts = 200000)
{
    trace::ZipfParams p;
    p.instructions = insts;
    p.keys = 1u << 14;
    return p;
}

class TempTraceFile
{
  public:
    explicit TempTraceFile(const std::string& tag)
        : path_("stream_test_" + tag + "_" +
                std::to_string(::getpid()) + ".mrpt")
    {
    }
    ~TempTraceFile() { std::remove(path_.c_str()); }
    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

class StreamSourceTest : public ::testing::Test
{
  protected:
    void TearDown() override { fault::disarmAll(); }
};

// ---------------------------------------------------------------------
// TraceSource contract

TEST_F(StreamSourceTest, ChunkSizeNeverChangesTheRecordSequence)
{
    const auto reference = [&] {
        auto s = trace::makeZipfSource(smallZipf());
        return drain(*s);
    }();
    ASSERT_FALSE(reference.empty());
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{63},
                                    std::size_t{4096}}) {
        auto p = smallZipf();
        p.chunkRecords = chunk;
        auto s = trace::makeZipfSource(p);
        EXPECT_TRUE(sameRecords(reference, drain(*s)))
            << "diverged at chunkRecords=" << chunk;
    }
}

TEST_F(StreamSourceTest, ResetReplaysTheIdenticalStream)
{
    trace::BlockIoParams p;
    p.instructions = 150000;
    auto s = trace::makeBlockIoSource(p);
    const auto first = drain(*s);
    s->reset();
    EXPECT_TRUE(sameRecords(first, drain(*s)));

    // A reset mid-stream also restarts from the beginning.
    s->reset();
    (void)s->nextChunk();
    s->reset();
    EXPECT_TRUE(sameRecords(first, drain(*s)));
}

TEST_F(StreamSourceTest, GeneratorsHitTheInstructionBudgetExactly)
{
    // Deliberately not a multiple of any chunk or phase size.
    const InstCount target = 123457;
    trace::ZipfParams zp = smallZipf(target);
    trace::BlockIoParams bp;
    bp.instructions = target;
    std::vector<trace::TraceSpec> kids;
    kids.push_back(trace::TraceSpec::zipf(zp));
    kids.push_back(trace::TraceSpec::blockIo(bp));
    const auto mix = trace::TraceSpec::phaseMix("mix", target, 10000,
                                                std::move(kids));

    for (const auto& spec :
         {trace::TraceSpec::zipf(zp), trace::TraceSpec::blockIo(bp),
          mix}) {
        auto s = spec.open();
        EXPECT_EQ(s->instructions(), target);
        EXPECT_EQ(sumInsts(drain(*s)), target)
            << spec.displayName();
    }
}

TEST_F(StreamSourceTest, MaterializeRoundsTripsIdentityAndTotals)
{
    const auto spec = trace::TraceSpec::zipf(smallZipf());
    const auto t = trace::materialize(*spec.open());
    EXPECT_EQ(t.name(), spec.displayName());
    EXPECT_EQ(t.instructions(), spec.instructions());

    // A materialized source over the trace replays the same records
    // at any chunk granularity.
    trace::MaterializedTraceSource m(t, 77);
    EXPECT_TRUE(sameRecords(recordsOf(t), drain(m)));
}

// ---------------------------------------------------------------------
// Chunked v3 files

TEST_F(StreamSourceTest, FileRoundTripsInBothModesAndViaMaterialize)
{
    TempTraceFile file("roundtrip");
    const auto spec = trace::TraceSpec::zipf(smallZipf());
    const auto reference = drain(*spec.open());
    {
        trace::ChunkedTraceWriter writer(file.path(),
                                         spec.displayName(), 1000);
        auto s = spec.open();
        writer.appendAll(*s);
        writer.finish();
        EXPECT_EQ(writer.instructions(), spec.instructions());
    }

    for (const auto mode :
         {trace::FileMode::Buffered, trace::FileMode::Mmap}) {
        trace::FileTraceSource s(file.path(), mode);
        EXPECT_EQ(s.name(), spec.displayName());
        EXPECT_EQ(s.instructions(), spec.instructions());
        const auto got = drain(s);
        EXPECT_TRUE(sameRecords(reference, got));
        EXPECT_GT(s.stats().chunksDecoded, 1u);

        // reset() rewinds the file cursor, not just generators.
        s.reset();
        EXPECT_TRUE(sameRecords(reference, drain(s)));
    }

    // Materializing the file sees the same trace as streaming it.
    trace::FileTraceSource whole(file.path());
    const auto loaded = trace::materialize(whole);
    EXPECT_EQ(loaded.name(), spec.displayName());
    EXPECT_TRUE(sameRecords(reference, recordsOf(loaded)));
}

TEST_F(StreamSourceTest, WriterChunkSizeChangesBytesNotRecords)
{
    TempTraceFile small("chunk_small");
    TempTraceFile large("chunk_large");
    const auto spec = trace::TraceSpec::zipf(smallZipf(60000));
    for (const auto* f : {&small, &large}) {
        trace::ChunkedTraceWriter writer(f->path(),
                                         spec.displayName(),
                                         f == &small ? 128 : 1 << 16);
        auto s = spec.open();
        writer.appendAll(*s);
        writer.finish();
    }
    trace::FileTraceSource a(small.path(), trace::FileMode::Buffered);
    trace::FileTraceSource b(large.path(), trace::FileMode::Buffered);
    EXPECT_TRUE(sameRecords(drain(a), drain(b)));
}

TEST_F(StreamSourceTest, MidChunkCorruptionIsRejectedWithByteOffset)
{
    TempTraceFile file("crc");
    {
        trace::ChunkedTraceWriter writer(file.path(), "t", 500);
        auto s = trace::makeZipfSource(smallZipf(60000));
        writer.appendAll(*s);
        writer.finish();
    }
    // First chunk's payload starts at v3PayloadStart(1) + the 16-byte
    // chunk header; flip one byte inside the first record.
    const auto payload =
        trace::wire::v3PayloadStart(1) + trace::wire::kChunkHeaderBytes;
    {
        std::fstream f(file.path(),
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(static_cast<std::streamoff>(payload + 5));
        char byte = 0;
        f.seekg(static_cast<std::streamoff>(payload + 5));
        f.get(byte);
        byte = static_cast<char>(byte ^ 0x10);
        f.seekp(static_cast<std::streamoff>(payload + 5));
        f.put(byte);
    }
    trace::FileTraceSource s(file.path(), trace::FileMode::Buffered);
    try {
        drain(s);
        FAIL() << "corrupted chunk was accepted";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::CorruptInput);
        EXPECT_NE(std::string(e.what()).find("CRC mismatch"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("offset"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(StreamSourceTest, CorruptionIsLocalizedToItsChunk)
{
    TempTraceFile file("crc_local");
    {
        trace::ChunkedTraceWriter writer(file.path(), "t", 200);
        auto s = trace::makeZipfSource(smallZipf(60000));
        writer.appendAll(*s);
        writer.finish();
    }
    // Flip a byte ~80% into the file: every chunk before it still
    // decodes; the stream fails only when the damaged chunk is
    // reached.
    std::uint64_t size = 0;
    {
        std::ifstream f(file.path(), std::ios::binary);
        f.seekg(0, std::ios::end);
        size = static_cast<std::uint64_t>(f.tellg());
    }
    {
        std::fstream f(file.path(),
                       std::ios::in | std::ios::out | std::ios::binary);
        const auto pos = static_cast<std::streamoff>(size * 4 / 5);
        f.seekg(pos);
        char byte = 0;
        f.get(byte);
        byte = static_cast<char>(byte ^ 0x01);
        f.seekp(pos);
        f.put(byte);
    }
    trace::FileTraceSource s(file.path(), trace::FileMode::Buffered);
    std::size_t good_chunks = 0;
    try {
        for (;;) {
            const auto chunk = s.nextChunk();
            ASSERT_FALSE(chunk.empty())
                << "corruption was never detected";
            ++good_chunks;
        }
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::CorruptInput);
    }
    EXPECT_GT(good_chunks, 3u);
}

TEST_F(StreamSourceTest, TruncatedFileIsRejected)
{
    TempTraceFile file("trunc");
    {
        trace::ChunkedTraceWriter writer(file.path(), "t", 500);
        auto s = trace::makeZipfSource(smallZipf(60000));
        writer.appendAll(*s);
        writer.finish();
    }
    std::string bytes;
    {
        std::ifstream f(file.path(), std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
    }
    {
        std::ofstream f(file.path(),
                        std::ios::binary | std::ios::trunc);
        f.write(bytes.data(),
                static_cast<std::streamsize>(bytes.size() - 9));
    }
    // Depending on where the cut lands the header validation (chunks
    // no longer fit the payload) or the chunk reader itself objects —
    // either way the answer is a typed error, never silent truncation.
    EXPECT_THROW(
        {
            trace::FileTraceSource s(file.path(),
                                     trace::FileMode::Buffered);
            drain(s);
        },
        FatalError);
}

TEST_F(StreamSourceTest, WriterFinishFaultLeavesNoTmpAndOldFileIntact)
{
    TempTraceFile file("atomic");
    const std::string sentinel = "previous contents";
    {
        std::ofstream f(file.path(), std::ios::binary);
        f << sentinel;
    }
    const std::string tmp =
        file.path() + ".tmp." + std::to_string(::getpid());
    {
        fault::Scoped f("stream.write.finish", fault::Spec{});
        trace::ChunkedTraceWriter writer(file.path(), "t", 500);
        auto s = trace::makeZipfSource(smallZipf(30000));
        writer.appendAll(*s);
        EXPECT_THROW(writer.finish(), FatalError);
    }
    EXPECT_FALSE(std::ifstream(tmp).good())
        << "tmp file survived a failed finish";
    std::ifstream f(file.path(), std::ios::binary);
    const std::string contents{std::istreambuf_iterator<char>(f),
                               std::istreambuf_iterator<char>()};
    EXPECT_EQ(contents, sentinel);
}

TEST_F(StreamSourceTest, AbandonedWriterRemovesItsTmp)
{
    TempTraceFile file("abandon");
    const std::string tmp =
        file.path() + ".tmp." + std::to_string(::getpid());
    {
        trace::ChunkedTraceWriter writer(file.path(), "t", 500);
        auto s = trace::makeZipfSource(smallZipf(30000));
        writer.appendAll(*s);
        // destroyed without finish()
    }
    EXPECT_FALSE(std::ifstream(tmp).good());
    EXPECT_FALSE(std::ifstream(file.path()).good());
}

// ---------------------------------------------------------------------
// Decode-ahead

TEST_F(StreamSourceTest, DecodeAheadDeliversTheSameStream)
{
    TempTraceFile file("da");
    const auto spec = trace::TraceSpec::zipf(smallZipf());
    {
        trace::ChunkedTraceWriter writer(file.path(),
                                         spec.displayName(), 1000);
        auto s = spec.open();
        writer.appendAll(*s);
        writer.finish();
    }
    const auto reference = drain(*spec.open());
    trace::DecodeAheadSource da(
        std::make_unique<trace::FileTraceSource>(
            file.path(), trace::FileMode::Buffered),
        2);
    EXPECT_EQ(da.name(), spec.displayName());
    EXPECT_EQ(da.instructions(), spec.instructions());
    EXPECT_TRUE(sameRecords(reference, drain(da)));
    EXPECT_GE(da.stats().maxQueueDepth, 1u);

    da.reset();
    EXPECT_TRUE(sameRecords(reference, drain(da)));
}

TEST_F(StreamSourceTest, DecodeAheadFaultSurfacesAtTheFailingChunk)
{
    TempTraceFile file("da_fault");
    {
        trace::ChunkedTraceWriter writer(file.path(), "t", 200);
        auto s = trace::makeZipfSource(smallZipf(100000));
        writer.appendAll(*s);
        writer.finish();
    }
    fault::Spec spec;
    spec.firstHit = 3; // chunks 1 and 2 decode, chunk 3 fails
    fault::Scoped f("stream.read", spec);
    trace::DecodeAheadSource da(
        std::make_unique<trace::FileTraceSource>(
            file.path(), trace::FileMode::Buffered),
        2);
    std::size_t delivered = 0;
    try {
        for (;;) {
            const auto chunk = da.nextChunk();
            ASSERT_FALSE(chunk.empty()) << "fault never surfaced";
            ++delivered;
        }
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::Io);
    }
    // The error arrives exactly where the failing chunk would have
    // been served, after every good chunk queued before it.
    EXPECT_EQ(delivered, 2u);
}

TEST_F(StreamSourceTest, DecodeAheadAbandonedMidStreamShutsDownCleanly)
{
    auto p = smallZipf(400000);
    p.chunkRecords = 64; // many chunks, worker far ahead of consumer
    trace::DecodeAheadSource da(trace::makeZipfSource(p), 4);
    (void)da.nextChunk();
    (void)da.nextChunk();
    // destructor must join the worker without draining the stream
}

// ---------------------------------------------------------------------
// Generator families

TEST_F(StreamSourceTest, ZipfTopRanksDrawTheirAnalyticShare)
{
    const std::uint64_t keys = 100000;
    const trace::ZipfDistribution dist(keys, 0.99);
    const double analytic = dist.topShare(keys / 100);
    EXPECT_GT(analytic, 0.4);
    EXPECT_LT(analytic, 0.9);

    Rng rng(7);
    const std::uint64_t draws = 200000;
    std::uint64_t hits = 0;
    for (std::uint64_t i = 0; i < draws; ++i)
        if (dist.sample(rng) < keys / 100)
            ++hits;
    const double empirical =
        static_cast<double>(hits) / static_cast<double>(draws);
    EXPECT_NEAR(empirical, analytic, 0.02);
}

TEST_F(StreamSourceTest, ZipfStreamConcentratesOnItsHotKeys)
{
    // The trace-level check: the top 1% of observed addresses must
    // carry roughly the analytic share (rank->key scattering permutes
    // identities, not popularity mass).
    trace::ZipfParams p;
    p.instructions = 400000;
    p.keys = 4096;
    const trace::ZipfDistribution dist(p.keys, p.theta);
    auto s = trace::makeZipfSource(p);
    std::unordered_map<Addr, std::uint64_t> counts;
    std::uint64_t total = 0;
    for (const auto& r : drain(*s)) {
        if (!r.isMem())
            continue;
        ++counts[r.addr()];
        ++total;
    }
    ASSERT_GT(total, 10000u);
    std::vector<std::uint64_t> freqs;
    freqs.reserve(counts.size());
    for (const auto& [addr, n] : counts)
        freqs.push_back(n);
    std::sort(freqs.begin(), freqs.end(), std::greater<>());
    const std::size_t top = p.keys / 100;
    std::uint64_t topHits = 0;
    for (std::size_t i = 0; i < top && i < freqs.size(); ++i)
        topHits += freqs[i];
    const double share =
        static_cast<double>(topHits) / static_cast<double>(total);
    EXPECT_NEAR(share, dist.topShare(top), 0.05);
}

TEST_F(StreamSourceTest, PhaseMixAlternatesBetweenChildStreams)
{
    trace::ZipfParams zp = smallZipf(400000);
    trace::BlockIoParams bp;
    bp.instructions = 400000;
    std::vector<trace::TraceSpec> kids;
    kids.push_back(trace::TraceSpec::zipf(zp));
    kids.push_back(trace::TraceSpec::blockIo(bp));
    const auto spec = trace::TraceSpec::phaseMix(
        "mix", 400000, 50000, std::move(kids));
    auto s = spec.open();
    // The two families use disjoint code regions, so PCs show which
    // child produced each record; both must appear.
    bool saw_zipf = false, saw_blkio = false;
    for (const auto& r : drain(*s)) {
        if (!r.isMem())
            continue;
        (r.pc() < 0x4100000 ? saw_zipf : saw_blkio) = true;
    }
    EXPECT_TRUE(saw_zipf);
    EXPECT_TRUE(saw_blkio);
}

// ---------------------------------------------------------------------
// TraceSpec

TEST_F(StreamSourceTest, SpecIdentityMatchesTheOpenedSource)
{
    TempTraceFile file("spec_id");
    {
        trace::ChunkedTraceWriter writer(file.path(), "filetrace",
                                         500);
        auto s = trace::makeZipfSource(smallZipf(50000));
        writer.appendAll(*s);
        writer.finish();
    }
    const auto suite_trace = trace::makeSuiteTrace(0, 40000);
    const std::vector<trace::TraceSpec> specs = {
        trace::TraceSpec::borrowed(suite_trace),
        trace::TraceSpec::suite(0, 40000),
        trace::TraceSpec::file(file.path()),
        trace::TraceSpec::zipf(smallZipf(50000)),
    };
    for (const auto& spec : specs) {
        const auto src = spec.open();
        EXPECT_EQ(src->name(), spec.displayName());
        if (spec.kind() == trace::TraceSpec::Kind::Suite ||
            spec.kind() == trace::TraceSpec::Kind::HeldOut) {
            // The legacy simpoint generators land within one loop
            // iteration of the target, not exactly on it.
            EXPECT_NEAR(
                static_cast<double>(src->instructions()),
                static_cast<double>(spec.instructions()), 64.0);
        } else {
            EXPECT_EQ(src->instructions(), spec.instructions());
        }
    }
}

TEST_F(StreamSourceTest, WithInstructionsRegeneratesNotTruncates)
{
    const auto full = trace::TraceSpec::zipf(smallZipf(200000));
    const auto rung = full.withInstructions(50000);
    EXPECT_EQ(rung.instructions(), 50000u);
    EXPECT_EQ(sumInsts(drain(*rung.open())), 50000u);

    TempTraceFile file("resize");
    {
        trace::ChunkedTraceWriter writer(file.path(), "t", 500);
        auto s = trace::makeZipfSource(smallZipf(30000));
        writer.appendAll(*s);
        writer.finish();
    }
    EXPECT_THROW(trace::TraceSpec::file(file.path())
                     .withInstructions(1000),
                 FatalError);
}

TEST_F(StreamSourceTest, PhaseMixRejectsBorrowedChildren)
{
    const auto t = trace::makeSuiteTrace(0, 10000);
    std::vector<trace::TraceSpec> kids;
    kids.push_back(trace::TraceSpec::borrowed(t));
    EXPECT_THROW(trace::TraceSpec::phaseMix("bad", 10000, 1000,
                                            std::move(kids)),
                 FatalError);
}

TEST_F(StreamSourceTest, OpenFaultSitesSurfaceTypedErrors)
{
    TempTraceFile file("open_fault");
    {
        trace::ChunkedTraceWriter writer(file.path(), "t", 500);
        auto s = trace::makeZipfSource(smallZipf(30000));
        writer.appendAll(*s);
        writer.finish();
    }
    {
        fault::Scoped f("stream.open", fault::Spec{});
        EXPECT_THROW(trace::FileTraceSource(file.path(),
                                            trace::FileMode::Buffered),
                     FatalError);
    }
    {
        fault::Scoped f("stream.mmap", fault::Spec{});
        EXPECT_THROW(trace::FileTraceSource(file.path(),
                                            trace::FileMode::Mmap),
                     FatalError);
    }
    {
        fault::Spec spec;
        spec.kind = fault::Kind::AllocFail;
        fault::Scoped f("stream.read.alloc", spec);
        trace::FileTraceSource s(file.path(),
                                 trace::FileMode::Buffered);
        try {
            drain(s);
            FAIL() << "alloc fault never surfaced";
        } catch (const FatalError& e) {
            EXPECT_EQ(e.code(), ErrorCode::Resource);
        }
    }
}

} // namespace

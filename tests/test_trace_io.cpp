/**
 * @file
 * Tests for the v3 trace file codec end to end: saveTrace and
 * ChunkedTraceWriter write, FileTraceSource reads (streamed or
 * materialized), in both FileModes. Covers round trips, the typed
 * rejection of v1/v2 files, a corrupt-input suite (truncation at every
 * header boundary, oversized length fields, wrong totals, trailing
 * bytes, a seeded single-bit-flip sweep over whole files, a seeded
 * mutation loop of truncations, chunk duplications and splices), and
 * the stream.* fault sites. Every rejection must be a typed
 * FatalError: no crash, no unbounded allocation, no leaked file.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "trace/source.hpp"
#include "trace/spec.hpp"
#include "trace/stream_reader.hpp"
#include "trace/trace_io.hpp"
#include "trace/wire_format.hpp"
#include "trace/workloads.hpp"
#include "util/crc32.hpp"
#include "util/fault_injection.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace mrp::trace {
namespace {

constexpr FileMode kModes[] = {FileMode::Buffered, FileMode::Mmap};

const char*
modeName(FileMode mode)
{
    return mode == FileMode::Buffered ? "buffered" : "mmap";
}

std::vector<Record>
recordsOf(const Trace& t)
{
    const auto r = t.records();
    return {r.begin(), r.end()};
}

void
expectEqualTraces(const Trace& a, const Trace& b)
{
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.instructions(), b.instructions());
    ASSERT_EQ(a.records().size(), b.records().size());
    for (std::size_t i = 0; i < a.records().size(); ++i) {
        EXPECT_EQ(a.records()[i].pc(), b.records()[i].pc());
        EXPECT_EQ(a.records()[i].op(), b.records()[i].op());
        EXPECT_EQ(a.records()[i].count(), b.records()[i].count());
        if (a.records()[i].isMem()) {
            EXPECT_EQ(a.records()[i].addr(), b.records()[i].addr());
            EXPECT_EQ(a.records()[i].dependsOnPrevLoad(),
                      b.records()[i].dependsOnPrevLoad());
        }
    }
}

/** A file name unique to this process. The file, and the tmp a writer
 * stages it in, are removed on scope exit. */
class TempPath
{
  public:
    explicit TempPath(const std::string& tag)
        : path_("trace_io_test_" + tag + "_" +
                std::to_string(::getpid()) + ".mrpt")
    {
    }
    ~TempPath()
    {
        std::remove(path_.c_str());
        std::remove(tmp().c_str());
    }
    const std::string& str() const { return path_; }
    std::string
    tmp() const
    {
        return path_ + ".tmp." + std::to_string(::getpid());
    }

  private:
    std::string path_;
};

std::string
readFile(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(f),
            std::istreambuf_iterator<char>()};
}

void
writeFile(const std::string& path, const std::string& bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

bool
exists(const std::string& path)
{
    return std::ifstream(path).good();
}

/** File descriptors this process holds open. */
std::size_t
openFds()
{
    std::size_t n = 0;
    for (const auto& fd :
         std::filesystem::directory_iterator("/proc/self/fd")) {
        (void)fd;
        ++n;
    }
    return n;
}

/** v3 image of @p trace in chunks of @p chunk_records; small by
 * default so every corruption case spans several chunks. */
std::string
bytesOf(const Trace& trace, std::size_t chunk_records = 500)
{
    TempPath p("image");
    ChunkedTraceWriter w(p.str(), trace.name(), chunk_records);
    w.append(recordsOf(trace));
    w.finish();
    return readFile(p.str());
}

/** Read @p path whole through FileTraceSource in @p mode. */
Trace
load(const std::string& path, FileMode mode)
{
    FileTraceSource s(path, mode);
    return materialize(s);
}

/** What reading @p path in @p mode raised: the FatalError's code and
 * message, or ErrorCode::None if the file reads cleanly. */
std::pair<ErrorCode, std::string>
loadOutcome(const std::string& path, FileMode mode)
{
    try {
        load(path, mode);
    } catch (const FatalError& e) {
        return {e.code(), e.what()};
    }
    return {ErrorCode::None, ""};
}

/** loadOutcome of @p bytes written to a temporary file. */
std::pair<ErrorCode, std::string>
readOutcome(const std::string& bytes, FileMode mode)
{
    TempPath p("read");
    writeFile(p.str(), bytes);
    return loadOutcome(p.str(), mode);
}

/** Expect both modes to refuse @p bytes as CorruptInput, with
 * @p needle in the message. */
void
expectCorrupt(const std::string& bytes, const std::string& needle)
{
    for (const auto mode : kModes) {
        const auto [code, what] = readOutcome(bytes, mode);
        EXPECT_EQ(code, ErrorCode::CorruptInput)
            << modeName(mode) << ": " << what;
        EXPECT_NE(what.find(needle), std::string::npos)
            << modeName(mode) << ": " << what;
    }
}

/** Recompute the header CRC after a test patched a header field, so
 * the reader must catch the patched value itself, not the checksum. */
void
resealHeader(std::string& bytes)
{
    std::uint32_t name_len = 0;
    std::memcpy(&name_len, &bytes[24], sizeof(name_len));
    const std::size_t crc_at = wire::v3PayloadStart(name_len) - 4;
    const std::uint32_t crc = Crc32::of(bytes.data(), crc_at);
    std::memcpy(&bytes[crc_at], &crc, sizeof(crc));
}

TEST(TraceIoTest, RoundTripsThroughStream)
{
    // Chunks in and out: appendAll from a source whose chunks straddle
    // the writer's, then drain the file without materializing it.
    const Trace original = makeSuiteTrace(22, 30000); // pointer chase
    TempPath p("stream");
    {
        MaterializedTraceSource src(original, 777);
        ChunkedTraceWriter w(p.str(), original.name(), 1000);
        w.appendAll(src);
        w.finish();
        EXPECT_EQ(w.instructions(), original.instructions());
        EXPECT_EQ(w.recordCount(), original.records().size());
    }
    for (const auto mode : kModes) {
        FileTraceSource s(p.str(), mode);
        std::vector<Record> got;
        for (auto c = s.nextChunk(); !c.empty(); c = s.nextChunk()) {
            EXPECT_LE(c.size(), 1000u);
            got.insert(got.end(), c.begin(), c.end());
        }
        expectEqualTraces(
            original, Trace(s.name(), std::move(got), s.instructions()));
    }
}

TEST(TraceIoTest, RoundTripsThroughFile)
{
    const Trace original = makeSuiteTrace(9, 20000);
    TempPath p("file");
    saveTrace(p.str(), original);
    for (const auto mode : kModes)
        expectEqualTraces(original, load(p.str(), mode));
}

TEST(TraceIoTest, V3RoundTripsExplicitly)
{
    // append() calls of uneven sizes, below and above the chunk
    // capacity, cut the same chunks as one whole-trace append.
    const Trace original = makeSuiteTrace(22, 30000);
    const std::string whole = bytesOf(original, 256);
    TempPath p("pieces");
    {
        ChunkedTraceWriter w(p.str(), original.name(), 256);
        const auto all = recordsOf(original);
        std::span<const Record> rest(all);
        for (std::size_t step = 1; !rest.empty();
             step = step * 3 % 1000 + 1) {
            const auto piece = rest.first(std::min(step, rest.size()));
            w.append(piece);
            rest = rest.subspan(piece.size());
        }
        w.finish();
    }
    EXPECT_EQ(readFile(p.str()), whole);
    for (const auto mode : kModes)
        expectEqualTraces(original, load(p.str(), mode));
}

TEST(TraceIoTest, RejectsBadMagic)
{
    expectCorrupt("NOPE and more bytes to be safe", "bad magic");
}

TEST(TraceIoTest, RejectsV1AndV2HeadersWithTypedError)
{
    // Only v3 is read. A v1/v2 file fails up front with a typed error
    // that names its version and the conversion route, from the reader
    // and from TraceSpec::file (the CLI's --trace path) alike.
    for (const std::uint32_t version : {1u, 2u}) {
        // The 28-byte header both formats share: magic, version, then
        // zero instruction count, record count and name length.
        std::string bytes(wire::kMagic, sizeof(wire::kMagic));
        bytes.append(reinterpret_cast<const char*>(&version),
                     sizeof(version));
        bytes.append(20, '\0');
        ASSERT_EQ(bytes.size(), 28u);
        expectCorrupt(bytes, "version " + std::to_string(version));
        expectCorrupt(bytes, "--dump");

        TempPath p("legacy");
        writeFile(p.str(), bytes);
        try {
            (void)TraceSpec::file(p.str());
            FAIL() << "TraceSpec::file accepted a v" << version
                   << " file";
        } catch (const FatalError& e) {
            EXPECT_EQ(e.code(), ErrorCode::CorruptInput) << e.what();
        }
    }
}

TEST(TraceIoTest, RejectsTruncation)
{
    const std::string bytes = bytesOf(makeSuiteTrace(0, 5000));
    expectCorrupt(bytes.substr(0, bytes.size() / 2), "truncated");
}

TEST(TraceIoTest, RejectsCorruptInstructionCount)
{
    std::string bytes = bytesOf(makeSuiteTrace(0, 5000));
    bytes[8] ^= 0x5A; // flip bits in the header's instruction count
    expectCorrupt(bytes, "header CRC mismatch");
    // Behind a valid header CRC, the end-of-stream totals catch it.
    resealHeader(bytes);
    expectCorrupt(bytes, "instruction count");
}

TEST(TraceIoTest, MissingFile)
{
    for (const auto mode : kModes)
        EXPECT_EQ(loadOutcome("/nonexistent/path/to.mrpt", mode).first,
                  ErrorCode::Io)
            << modeName(mode);
}

TEST(TraceIoTest, RejectsTruncationAtEveryHeaderBoundary)
{
    const Trace original = makeSuiteTrace(0, 5000);
    const std::string bytes = bytesOf(original);
    // Every cut through the fixed fields, name, pad, header CRC and
    // first chunk header, a sample of cuts through the chunks, and
    // every cut through the last few bytes.
    const std::size_t first_chunk_end =
        wire::v3PayloadStart(original.name().size()) +
        wire::kChunkHeaderBytes;
    std::vector<std::size_t> cuts;
    for (std::size_t c = 0; c <= first_chunk_end; ++c)
        cuts.push_back(c);
    for (std::size_t c = first_chunk_end; c < bytes.size();
         c += (bytes.size() - first_chunk_end) / 16 + 1)
        cuts.push_back(c);
    for (std::size_t back = 1; back <= 5; ++back)
        cuts.push_back(bytes.size() - back);
    for (const auto mode : kModes) {
        for (const std::size_t cut : cuts) {
            const auto [code, what] =
                readOutcome(bytes.substr(0, cut), mode);
            EXPECT_TRUE(code == ErrorCode::CorruptInput ||
                        code == ErrorCode::Io)
                << modeName(mode) << " cut at " << cut << " gave code "
                << errorCodeName(code) << ": " << what;
        }
    }
}

TEST(TraceIoTest, TruncationDiagnosticsReportOffsets)
{
    const std::string bytes = bytesOf(makeSuiteTrace(0, 5000));
    // One cut inside the name, one inside the chunks.
    expectCorrupt(bytes.substr(0, wire::kV3FixedBytes + 1), "offset");
    expectCorrupt(bytes.substr(0, bytes.size() - 100), "offset");
}

TEST(TraceIoTest, RejectsBitFlippedHeaderCrc)
{
    const Trace original = makeSuiteTrace(1, 5000);
    std::string bytes = bytesOf(original);
    bytes[wire::v3PayloadStart(original.name().size()) - 2] ^= 0x10;
    expectCorrupt(bytes, "header CRC mismatch");
}

TEST(TraceIoTest, CrcCatchesPayloadBitFlips)
{
    // A flipped bit inside the last record: only its chunk CRC sees it.
    std::string bytes = bytesOf(makeSuiteTrace(1, 5000));
    bytes[bytes.size() - 3] ^= 0x04;
    expectCorrupt(bytes, "chunk CRC mismatch");
}

TEST(TraceIoTest, V3CrcCatchesPayloadBitFlips)
{
    // The chunk CRC also covers the chunk header's count fields.
    const Trace original = makeSuiteTrace(1, 5000);
    std::string bytes = bytesOf(original);
    // A bit of the first chunk's instruction count.
    bytes[wire::v3PayloadStart(original.name().size()) + 9] ^= 0x04;
    expectCorrupt(bytes, "chunk CRC mismatch");
}

TEST(TraceIoTest, V3RejectsHeaderBitFlips)
{
    // The header CRC catches a flipped bit even in a field that still
    // parses, such as the name.
    std::string bytes = bytesOf(makeSuiteTrace(1, 5000));
    bytes[wire::kV3FixedBytes + 1] ^= 0x01; // second byte of the name
    expectCorrupt(bytes, "header CRC mismatch");
}

TEST(TraceIoTest, RejectsOversizedNameLength)
{
    std::string bytes = bytesOf(makeSuiteTrace(0, 5000));
    const std::uint32_t huge = 0xFFFFFFF0u;
    std::memcpy(&bytes[24], &huge, sizeof(huge)); // the name length
    expectCorrupt(bytes, "name length");
}

TEST(TraceIoTest, RejectsOversizedRecordCountWithoutAllocating)
{
    // A record count claiming ~16 TiB, behind a valid header CRC, is
    // refused from the file size before any chunk buffer is sized:
    // with every chunk allocation armed to fail, the error is still
    // CorruptInput, never Resource.
    std::string bytes = bytesOf(makeSuiteTrace(0, 5000));
    const std::uint64_t huge = 1ull << 40;
    std::memcpy(&bytes[16], &huge, sizeof(huge));
    resealHeader(bytes);
    fault::Spec spec;
    spec.kind = fault::Kind::AllocFail;
    spec.maxFires = -1;
    fault::Scoped f("stream.read.alloc", spec);
    expectCorrupt(bytes, "truncated");
}

TEST(TraceIoTest, RejectsPlausibleButWrongRecordCount)
{
    std::string bytes = bytesOf(makeSuiteTrace(0, 5000));
    std::uint64_t count = 0;
    std::memcpy(&count, &bytes[16], sizeof(count));
    count -= 1; // one record fewer than the chunks hold
    std::memcpy(&bytes[16], &count, sizeof(count));
    resealHeader(bytes);
    expectCorrupt(bytes, "record count");
}

TEST(TraceIoTest, V3RejectsTrailingGarbage)
{
    // A chunked payload knows exactly where it ends; stray bytes after
    // the last chunk mean the file is not what its header claims.
    std::string bytes = bytesOf(makeSuiteTrace(1, 5000));
    bytes += "stray";
    expectCorrupt(bytes, "trailing");
}

TEST(TraceIoTest, SeededBitFlipsAreAlwaysRejected)
{
    // Deterministic fuzzing: one random bit flipped anywhere in a file
    // (header, padding, chunk headers, records). The header and chunk
    // CRC-32s detect every single-bit error, so no flip may read back
    // cleanly in either mode.
    const std::string clean = bytesOf(makeSuiteTrace(2, 5000));
    TempPath p("bitflip");
    Rng rng(12345);
    for (int i = 0; i < 256; ++i) {
        std::string bytes = clean;
        const auto at = static_cast<std::size_t>(rng.below(bytes.size()));
        const auto bit = static_cast<unsigned>(rng.below(8));
        bytes[at] = static_cast<char>(bytes[at] ^ (1u << bit));
        writeFile(p.str(), bytes);
        for (const auto mode : kModes) {
            const auto [code, what] = loadOutcome(p.str(), mode);
            EXPECT_EQ(code, ErrorCode::CorruptInput)
                << modeName(mode) << ": bit " << bit << " of byte "
                << at << ": " << what;
        }
    }
}

/** File offsets of the chunk headers of the v3 image @p bytes. */
std::vector<std::size_t>
chunkStarts(const std::string& bytes, std::size_t name_len)
{
    std::vector<std::size_t> starts;
    for (std::size_t at = wire::v3PayloadStart(name_len);
         at < bytes.size();) {
        starts.push_back(at);
        std::uint32_t count = 0;
        std::memcpy(&count, &bytes[at], sizeof(count));
        at += wire::kChunkHeaderBytes + count * sizeof(Record);
    }
    return starts;
}

TEST(TraceIoTest, SeededMutationsReadBackOrFailTyped)
{
    // Generative fuzzing of the v3 decoder: every truncation through
    // the header and the first chunk header, then seeded duplications
    // of whole chunks, splices with another trace's image, splices of
    // the file with itself (dropping or repeating a byte range), and
    // truncations anywhere. A mutant must read back as the original
    // records or fail with CorruptInput/Io, in both modes; never crash,
    // and never read back as anything else. Last, every swap of the
    // short final chunk with an earlier one. Swaps of two full chunks
    // are left out: v3 chunks carry no position, so such a file reads
    // back without an error.
    const Trace original = makeSuiteTrace(3, 8000);
    const auto want = recordsOf(original);
    const std::string clean = bytesOf(original, 300);
    const std::string donor = bytesOf(makeSuiteTrace(4, 8000), 300);
    const auto starts = chunkStarts(clean, original.name().size());
    ASSERT_GE(starts.size(), 4u);

    std::vector<std::pair<std::string, std::string>> mutants;
    for (std::size_t cut = 0; cut <= starts[0] + wire::kChunkHeaderBytes;
         ++cut)
        mutants.emplace_back("cut at " + std::to_string(cut),
                             clean.substr(0, cut));
    Rng rng(2024);
    for (int i = 0; i < 400; ++i) {
        const auto k = static_cast<std::size_t>(rng.below(starts.size()));
        const std::size_t end =
            k + 1 < starts.size() ? starts[k + 1] : clean.size();
        const auto a = static_cast<std::size_t>(rng.below(clean.size()));
        switch (rng.below(4)) {
        case 0:
            mutants.emplace_back(
                "chunk " + std::to_string(k) + " duplicated",
                clean.substr(0, end) +
                    clean.substr(starts[k], end - starts[k]) +
                    clean.substr(end));
            break;
        case 1: {
            const auto b = static_cast<std::size_t>(rng.below(donor.size()));
            mutants.emplace_back(
                "own bytes to " + std::to_string(a) +
                    ", donor bytes from " + std::to_string(b),
                clean.substr(0, a) + donor.substr(b));
            break;
        }
        case 2: {
            const auto b = static_cast<std::size_t>(rng.below(clean.size()));
            mutants.emplace_back("bytes to " + std::to_string(a) +
                                     ", then from " + std::to_string(b),
                                 clean.substr(0, a) + clean.substr(b));
            break;
        }
        default:
            mutants.emplace_back("cut at " + std::to_string(a),
                                 clean.substr(0, a));
        }
    }
    const auto swapped = [&](std::size_t i, std::size_t j) {
        // Chunks i < j as stored; the result holds j's bytes at i.
        const std::size_t end_i = starts[i + 1];
        const std::size_t end_j =
            j + 1 < starts.size() ? starts[j + 1] : clean.size();
        return clean.substr(0, starts[i]) +
               clean.substr(starts[j], end_j - starts[j]) +
               clean.substr(end_i, starts[j] - end_i) +
               clean.substr(starts[i], end_i - starts[i]) +
               clean.substr(end_j);
    };
    const std::size_t last = starts.size() - 1;
    ASSERT_LT(clean.size() - starts[last], starts[1] - starts[0])
        << "the last chunk must be the short one";
    for (std::size_t k = 0; k < last; ++k)
        mutants.emplace_back("chunk " + std::to_string(k) +
                                 " swapped with the short last chunk",
                             swapped(k, last));

    TempPath p("mutant");
    for (const auto& [what, bytes] : mutants) {
        writeFile(p.str(), bytes);
        for (const auto mode : kModes) {
            try {
                const auto got = recordsOf(load(p.str(), mode));
                const bool same =
                    got.size() == want.size() &&
                    std::memcmp(got.data(), want.data(),
                                want.size() * sizeof(Record)) == 0;
                EXPECT_TRUE(same)
                    << modeName(mode) << ", " << what
                    << ": read back different records without an error";
            } catch (const FatalError& e) {
                EXPECT_TRUE(e.code() == ErrorCode::CorruptInput ||
                            e.code() == ErrorCode::Io)
                    << modeName(mode) << ", " << what << ": "
                    << errorCodeName(e.code()) << ": " << e.what();
            }
        }
    }
}

TEST(TraceIoTest, RejectsAShortChunkBeforeTheLast)
{
    // A 300k-instruction scan.a dump, as `mrp_sim_cli --dump` writes
    // it, is one full chunk and a short one. With the two swapped,
    // every CRC still holds and the file used to read back (and
    // simulate) as a different trace; now the short chunk in first
    // place is refused.
    const auto names = suiteNames();
    const auto idx = static_cast<unsigned>(
        std::find(names.begin(), names.end(), "scan.a") - names.begin());
    ASSERT_LT(idx, names.size());
    const auto spec = TraceSpec::suite(idx, 300000);
    TempPath p("dump");
    {
        ChunkedTraceWriter w(p.str(), spec.displayName());
        w.appendAll(*spec.open());
        w.finish();
    }
    const std::string bytes = readFile(p.str());
    const auto starts = chunkStarts(bytes, spec.displayName().size());
    ASSERT_EQ(starts.size(), 2u);
    const std::string swapped =
        bytes.substr(0, starts[0]) + bytes.substr(starts[1]) +
        bytes.substr(starts[0], starts[1] - starts[0]);
    ASSERT_EQ(swapped.size(), bytes.size());
    expectCorrupt(swapped, "only the last chunk may be short");
}

TEST(TraceIoTest, OverlongNameIsAConfigErrorThatLeaksNothing)
{
    // The writer checks the name before it creates its tmp file: a
    // throwing constructor runs no destructor, so a file opened first
    // would leak its descriptor and stay on disk.
    TempPath p("longname");
    const std::string name(5000, 'n');
    const std::size_t fds = openFds();
    try {
        ChunkedTraceWriter w(p.str(), name);
        FAIL() << "a " << name.size() << "-byte name was accepted";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::Config);
    }
    EXPECT_FALSE(exists(p.tmp()));
    EXPECT_EQ(openFds(), fds);

    const Trace t = makeSuiteTrace(0, 5000);
    try {
        saveTrace(p.str(), Trace(name, recordsOf(t), t.instructions()));
        FAIL() << "saveTrace accepted a " << name.size() << "-byte name";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::Config);
    }
    EXPECT_FALSE(exists(p.tmp()));
    EXPECT_FALSE(exists(p.str()));
    EXPECT_EQ(openFds(), fds);
}

class TraceIoFaultTest : public ::testing::Test
{
  protected:
    void TearDown() override { fault::disarmAll(); }
};

TEST_F(TraceIoFaultTest, InjectedWriteCorruptionIsAlwaysDetected)
{
    // "stream.write.corrupt" flips a bit of a chunk header as it is
    // written; every chunk is a hit, so the seed also picks the chunk.
    const Trace original = makeSuiteTrace(2, 5000);
    const std::size_t chunks = (original.records().size() + 499) / 500;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        fault::Spec spec;
        spec.kind = fault::Kind::CorruptByte;
        spec.seed = seed;
        spec.firstHit = 1 + seed % chunks;
        std::string bytes;
        {
            fault::Scoped f("stream.write.corrupt", spec);
            bytes = bytesOf(original);
            ASSERT_EQ(fault::fires("stream.write.corrupt"), 1u);
        }
        for (const auto mode : kModes)
            EXPECT_EQ(readOutcome(bytes, mode).first,
                      ErrorCode::CorruptInput)
                << modeName(mode) << ": seed " << seed
                << " corrupted a byte the reader failed to notice";
    }
}

TEST_F(TraceIoFaultTest, InjectedAllocFailureIsTypedResourceError)
{
    TempPath p("alloc");
    saveTrace(p.str(), makeSuiteTrace(2, 5000));
    fault::Spec spec;
    spec.kind = fault::Kind::AllocFail;
    fault::Scoped f("stream.read.alloc", spec);
    // Only buffered reads allocate; mmap serves spans of the map.
    EXPECT_EQ(loadOutcome(p.str(), FileMode::Buffered).first,
              ErrorCode::Resource);
}

TEST_F(TraceIoFaultTest, InjectedIoFailuresAreTypedIoErrors)
{
    const Trace original = makeSuiteTrace(2, 5000);
    TempPath p("io");
    for (const char* site : {"stream.write", "stream.write.finish"}) {
        fault::Scoped f(site, fault::Spec{});
        try {
            saveTrace(p.str(), original);
            FAIL() << site << " never fired";
        } catch (const FatalError& e) {
            EXPECT_EQ(e.code(), ErrorCode::Io) << site;
        }
    }
    saveTrace(p.str(), original);
    for (const auto mode : kModes) {
        for (const char* site : {"stream.open", "stream.read"}) {
            fault::Scoped f(site, fault::Spec{});
            EXPECT_EQ(loadOutcome(p.str(), mode).first, ErrorCode::Io)
                << site << ", " << modeName(mode);
        }
    }
    {
        fault::Scoped f("stream.mmap", fault::Spec{});
        EXPECT_EQ(loadOutcome(p.str(), FileMode::Mmap).first,
                  ErrorCode::Io);
    }
    for (const auto mode : kModes)
        expectEqualTraces(original, load(p.str(), mode)); // disarmed
}

TEST_F(TraceIoFaultTest, FailedSaveLeavesTargetAndNoTmpBehind)
{
    const Trace original = makeSuiteTrace(2, 5000);
    const Trace other = makeSuiteTrace(3, 5000);
    TempPath p("atomic");
    saveTrace(p.str(), original);
    {
        // Fail once the tmp exists: hit 1 creates it, hit 2 writes the
        // first chunk.
        fault::Spec spec;
        spec.firstHit = 2;
        fault::Scoped f("stream.write", spec);
        EXPECT_THROW(saveTrace(p.str(), other), FatalError);
    }
    EXPECT_FALSE(exists(p.tmp())) << "a tmp file survived a failed save";
    {
        fault::Scoped f("stream.write.finish", fault::Spec{});
        EXPECT_THROW(saveTrace(p.str(), other), FatalError);
    }
    EXPECT_FALSE(exists(p.tmp())) << "a tmp file survived a failed save";
    expectEqualTraces(original, load(p.str(), FileMode::Buffered));

    // A successful save also cleans up after itself.
    saveTrace(p.str(), other);
    EXPECT_FALSE(exists(p.tmp()));
    expectEqualTraces(other, load(p.str(), FileMode::Buffered));
}

} // namespace
} // namespace mrp::trace

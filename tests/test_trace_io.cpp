/**
 * @file
 * Tests for the v4 trace file codec end to end: saveTrace and
 * ChunkedTraceWriter write, FileTraceSource reads (streamed or
 * materialized), in both FileModes. Covers round trips, saveTrace's
 * bytes against the record-by-record writer, the typed rejection of
 * v1-v3 files, a corrupt-input suite (truncation at every header
 * boundary, oversized length fields, wrong totals, trailing bytes, a
 * seeded single-bit-flip sweep over whole files, a seeded mutation
 * loop of truncations, chunk duplications and splices, every swap of
 * two chunks, and re-sealed edits that reach each check behind a valid
 * chunk CRC), and the stream.* fault sites. Every rejection must be a
 * typed FatalError: no crash, no unbounded allocation, no leaked file.
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

/** v4 image of @p trace, written record by record. */
std::string
bytesOf(const Trace& trace)
{
    TempPath p("image");
    ChunkedTraceWriter w(p.str(), trace.name());
    w.append(recordsOf(trace));
    w.finish();
    return readFile(p.str());
}

/** A suite trace of at least @p chunks chunks (whole 4096-record
 * blocks plus a short last one), so every corruption case below spans
 * several. */
Trace
multiChunkTrace(unsigned index, std::size_t chunks)
{
    Trace t = makeSuiteTrace(index, chunks * 40000 + 777);
    EXPECT_GT(t.records().size(), (chunks - 1) * Trace::kBlockRecords);
    EXPECT_NE(t.records().size() % Trace::kBlockRecords, 0u);
    return t;
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
    const std::size_t crc_at = wire::payloadStart(name_len) - 4;
    const std::uint32_t crc = Crc32::of(bytes.data(), crc_at);
    std::memcpy(&bytes[crc_at], &crc, sizeof(crc));
}

TEST(TraceIoTest, RoundTripsThroughStream)
{
    // Chunks in and out: appendAll from a source whose chunks straddle
    // the writer's, then drain the file without materializing it.
    const Trace original = multiChunkTrace(22, 4); // pointer chase
    TempPath p("stream");
    {
        MaterializedTraceSource src(original, 777);
        ChunkedTraceWriter w(p.str(), original.name());
        w.appendAll(src);
        w.finish();
        EXPECT_EQ(w.instructions(), original.instructions());
        EXPECT_EQ(w.recordCount(), original.records().size());
    }
    for (const auto mode : kModes) {
        FileTraceSource s(p.str(), mode);
        std::vector<Record> got;
        for (auto c = s.nextChunk(); !c.empty(); c = s.nextChunk()) {
            EXPECT_LE(c.size(), Trace::kBlockRecords);
            got.insert(got.end(), c.begin(), c.end());
        }
        EXPECT_GE(s.stats().chunksDecoded, 4u);
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

TEST(TraceIoTest, SaveTraceEqualsUnevenWriterAppends)
{
    // saveTrace copies the trace's blocks as stored; a writer fed the
    // same records in appends of 1, 7, 4095 and 4097 records, straddling
    // every block boundary, encodes the same blocks. The file is the
    // header, then per block a chunk header, the PC table and 8 bytes
    // per record.
    const Trace original = multiChunkTrace(22, 6);
    TempPath saved("saved");
    saveTrace(saved.str(), original);
    TempPath pieces("pieces");
    {
        ChunkedTraceWriter w(pieces.str(), original.name());
        const auto all = recordsOf(original);
        std::span<const Record> rest(all);
        constexpr std::size_t kSteps[] = {1, 7, 4095, 4097};
        for (std::size_t i = 0; !rest.empty(); ++i) {
            const auto piece =
                rest.first(std::min(kSteps[i % 4], rest.size()));
            w.append(piece);
            rest = rest.subspan(piece.size());
        }
        w.finish();
    }
    const std::string bytes = readFile(saved.str());
    EXPECT_TRUE(bytes == readFile(pieces.str()))
        << "saveTrace bytes differ from the writer's";
    std::size_t expected = wire::payloadStart(original.name().size());
    for (std::size_t i = 0; i < original.blockCount(); ++i)
        expected += wire::kChunkHeaderBytes +
                    original.block(i).pcs.size_bytes() +
                    original.block(i).words.size_bytes();
    EXPECT_EQ(bytes.size(), expected);
    for (const auto mode : kModes)
        expectEqualTraces(original, load(saved.str(), mode));
}

TEST(TraceIoTest, WriterRefusesATraceOffABlockBoundary)
{
    // A trace's blocks are written as stored, so they cannot follow a
    // partial block; the writer refuses rather than re-encoding. The
    // trace is one whole block, so nothing else in append() panics.
    const Trace whole(
        "whole",
        std::vector<Record>(Trace::kBlockRecords, Record::nonMem(0x500, 1)),
        Trace::kBlockRecords);
    TempPath p("offset");
    ChunkedTraceWriter w(p.str(), "both");
    const Record r = Record::nonMem(0x400, 3);
    w.append(std::span<const Record>(&r, 1));
    EXPECT_THROW(w.append(whole), PanicError);
}

TEST(TraceIoTest, RejectsBadMagic)
{
    expectCorrupt("NOPE and more bytes to be safe", "bad magic");
}

TEST(TraceIoTest, RejectsV1AndV2HeadersWithTypedError)
{
    // Only v4 is read. A v1/v2 file fails up front with a typed error
    // that names its version and the regeneration route, from the
    // reader and from TraceSpec::file (the CLI's --trace path) alike.
    for (const std::uint32_t version : {1u, 2u}) {
        // The 28-byte header both formats share: magic, version, then
        // zero instruction count, record count and name length.
        std::string bytes(wire::kMagic, sizeof(wire::kMagic));
        bytes.append(reinterpret_cast<const char*>(&version),
                     sizeof(version));
        bytes.append(20, '\0');
        ASSERT_EQ(bytes.size(), 28u);
        expectCorrupt(bytes, "version " + std::to_string(version));
        expectCorrupt(bytes, "--benchmark");
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

TEST(TraceIoTest, RejectsV3HeadersWithTypedError)
{
    // A well-formed v3 header: the 32-byte fixed fields (v3 had a chunk
    // capacity after the name length), the name, the pad to 16 bytes
    // and its header CRC, then one chunk of two 16-byte records.
    const std::string name = "scan.a";
    std::string bytes(wire::kMagic, sizeof(wire::kMagic));
    const auto put32 = [&](std::uint32_t v) {
        bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    const auto put64 = [&](std::uint64_t v) {
        bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    put32(3);
    put64(2);
    put64(2);
    put32(static_cast<std::uint32_t>(name.size()));
    put32(65536);
    bytes += name;
    bytes.append((16 - (32 + name.size() + 4) % 16) % 16, '\0');
    put32(Crc32::of(bytes.data(), bytes.size()));
    ASSERT_EQ(bytes.size() % 16, 0u);
    bytes.append(16 + 2 * sizeof(Record), '\0');
    expectCorrupt(bytes, "unsupported trace format version 3");
    expectCorrupt(bytes, "regenerate the trace with 'mrp_sim_cli "
                         "--benchmark NAME --insts N --dump FILE'");
    TempPath p("v3");
    writeFile(p.str(), bytes);
    try {
        (void)TraceSpec::file(p.str());
        FAIL() << "TraceSpec::file accepted a v3 file";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::CorruptInput) << e.what();
        EXPECT_NE(std::string(e.what()).find("version 3"),
                  std::string::npos)
            << e.what();
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
    const Trace original = multiChunkTrace(0, 3);
    const std::string bytes = bytesOf(original);
    // Every cut through the fixed fields, name, pad, header CRC and
    // first chunk header, a sample of cuts through the chunks, and
    // every cut through the last few bytes.
    const std::size_t first_chunk_end =
        wire::payloadStart(original.name().size()) +
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
    expectCorrupt(bytes.substr(0, wire::kFixedBytes + 1), "offset");
    expectCorrupt(bytes.substr(0, bytes.size() - 100), "offset");
}

TEST(TraceIoTest, RejectsBitFlippedHeaderCrc)
{
    const Trace original = makeSuiteTrace(1, 5000);
    std::string bytes = bytesOf(original);
    bytes[wire::payloadStart(original.name().size()) - 2] ^= 0x10;
    expectCorrupt(bytes, "header CRC mismatch");
}

TEST(TraceIoTest, CrcCatchesPayloadBitFlips)
{
    // A flipped bit inside the last record: only its chunk CRC sees it.
    std::string bytes = bytesOf(makeSuiteTrace(1, 5000));
    bytes[bytes.size() - 3] ^= 0x04;
    expectCorrupt(bytes, "chunk CRC mismatch");
}

TEST(TraceIoTest, ChunkCrcCoversTheChunkHeader)
{
    // The chunk CRC also covers the chunk header's count fields.
    const Trace original = makeSuiteTrace(1, 5000);
    std::string bytes = bytesOf(original);
    // A bit of the first chunk's instruction count.
    bytes[wire::payloadStart(original.name().size()) + 17] ^= 0x04;
    expectCorrupt(bytes, "chunk CRC mismatch");
}

TEST(TraceIoTest, RejectsHeaderBitFlips)
{
    // The header CRC catches a flipped bit even in a field that still
    // parses, such as the name.
    std::string bytes = bytesOf(makeSuiteTrace(1, 5000));
    bytes[wire::kFixedBytes + 1] ^= 0x01; // second byte of the name
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

TEST(TraceIoTest, RejectsTrailingGarbage)
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
    const std::string clean = bytesOf(multiChunkTrace(2, 3));
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

/** Fields of a chunk header of a v4 image. */
struct ChunkFields
{
    std::uint32_t count = 0;
    std::uint32_t tableLen = 0;
    std::uint32_t crc = 0;
    std::uint32_t zero = 0;
    std::uint64_t instructions = 0;
};

ChunkFields
chunkAt(const std::string& bytes, std::size_t at)
{
    ChunkFields c;
    std::memcpy(&c.count, &bytes[at], 4);
    std::memcpy(&c.tableLen, &bytes[at + 4], 4);
    std::memcpy(&c.crc, &bytes[at + 8], 4);
    std::memcpy(&c.zero, &bytes[at + 12], 4);
    std::memcpy(&c.instructions, &bytes[at + 16], 8);
    return c;
}

/** File offsets of the chunk headers of the v4 image @p bytes. */
std::vector<std::size_t>
chunkStarts(const std::string& bytes, std::size_t name_len)
{
    std::vector<std::size_t> starts;
    for (std::size_t at = wire::payloadStart(name_len);
         at < bytes.size();) {
        starts.push_back(at);
        const ChunkFields c = chunkAt(bytes, at);
        at += wire::kChunkHeaderBytes +
              (std::size_t{c.tableLen} + c.count) * sizeof(std::uint64_t);
    }
    return starts;
}

/** @p bytes with chunks @p i < @p j (of @p starts) swapped. */
std::string
swapChunks(const std::string& bytes, const std::vector<std::size_t>& starts,
           std::size_t i, std::size_t j)
{
    const std::size_t end_i = starts[i + 1];
    const std::size_t end_j =
        j + 1 < starts.size() ? starts[j + 1] : bytes.size();
    return bytes.substr(0, starts[i]) +
           bytes.substr(starts[j], end_j - starts[j]) +
           bytes.substr(end_i, starts[j] - end_i) +
           bytes.substr(starts[i], end_i - starts[i]) +
           bytes.substr(end_j);
}

/**
 * Recompute the CRC of chunk @p index, whose header is at @p at, from
 * its header fields and payload as they now stand, so the reader must
 * catch a patched chunk by the check the patch targets, not by its
 * checksum.
 */
void
resealChunk(std::string& bytes, std::size_t at, std::uint64_t index)
{
    const ChunkFields c = chunkAt(bytes, at);
    const std::size_t payload =
        (std::size_t{c.tableLen} + c.count) * sizeof(std::uint64_t);
    ASSERT_LE(at + wire::kChunkHeaderBytes + payload, bytes.size());
    Crc32 crc;
    crc.update(&index, sizeof(index));
    crc.update(&bytes[at], 8);       // count, table length
    crc.update(&bytes[at + 12], 12); // zero, instructions
    crc.update(&bytes[at + wire::kChunkHeaderBytes], payload);
    const std::uint32_t v = crc.value();
    std::memcpy(&bytes[at + 8], &v, sizeof(v));
}

TEST(TraceIoTest, SeededMutationsReadBackOrFailTyped)
{
    // Generative fuzzing of the v4 decoder: every truncation through
    // the header and the first chunk header, then seeded duplications
    // of whole chunks, splices with another trace's image, splices of
    // the file with itself (dropping or repeating a byte range), and
    // truncations anywhere. A mutant must read back as the original
    // records or fail with CorruptInput/Io, in both modes; never crash,
    // and never read back as anything else. Last, every swap of two
    // chunks, full or short.
    const Trace original = multiChunkTrace(3, 4);
    const auto want = recordsOf(original);
    const std::string clean = bytesOf(original);
    const std::string donor = bytesOf(multiChunkTrace(4, 4));
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
    for (std::size_t i = 0; i < starts.size(); ++i)
        for (std::size_t j = i + 1; j < starts.size(); ++j)
            mutants.emplace_back("chunks " + std::to_string(i) + " and " +
                                     std::to_string(j) + " swapped",
                                 swapChunks(clean, starts, i, j));

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

/** A 300k-instruction scan.a dump, as `mrp_sim_cli --dump` writes it:
 * some thirty full chunks and a short last one. */
std::string
scanDump(std::vector<std::size_t>& starts)
{
    const auto names = suiteNames();
    const auto idx = static_cast<unsigned>(
        std::find(names.begin(), names.end(), "scan.a") - names.begin());
    EXPECT_LT(idx, names.size());
    const auto spec = TraceSpec::suite(idx, 300000);
    TempPath p("dump");
    {
        ChunkedTraceWriter w(p.str(), spec.displayName());
        w.appendAll(*spec.open());
        w.finish();
    }
    const std::string bytes = readFile(p.str());
    starts = chunkStarts(bytes, spec.displayName().size());
    return bytes;
}

TEST(TraceIoTest, RejectsAShortChunkBeforeTheLast)
{
    // With the short last chunk swapped into first place, the file
    // used to read back (and simulate) as a different trace. The short
    // chunk is refused by its record count, before its CRC.
    std::vector<std::size_t> starts;
    const std::string bytes = scanDump(starts);
    ASSERT_GE(starts.size(), 3u);
    const std::string swapped =
        swapChunks(bytes, starts, 0, starts.size() - 1);
    ASSERT_EQ(swapped.size(), bytes.size());
    expectCorrupt(swapped, "only the last chunk may be short");
}

TEST(TraceIoTest, RejectsEverySwapOfTwoFullChunks)
{
    // Two full chunks swapped keep every count and every payload
    // intact; each chunk's CRC covers its index, so the first chunk
    // out of place fails its CRC.
    std::vector<std::size_t> starts;
    const std::string bytes = scanDump(starts);
    const std::size_t full = starts.size() - 1;
    ASSERT_GE(full, 20u);
    for (std::size_t i = 0; i < full; ++i) {
        for (std::size_t j = i + 1; j < full; ++j) {
            SCOPED_TRACE("chunks " + std::to_string(i) + " and " +
                         std::to_string(j));
            expectCorrupt(swapChunks(bytes, starts, i, j),
                          "chunk CRC mismatch");
        }
    }
}

TEST(TraceIoTest, ResealedChunkEditsFailTheCheckTheyTarget)
{
    // Each edit is re-sealed with a correct chunk CRC, so only the
    // check it targets stands between it and the decoder.
    const Trace original = multiChunkTrace(5, 3);
    const std::string clean = bytesOf(original);
    const auto starts = chunkStarts(clean, original.name().size());
    ASSERT_GE(starts.size(), 3u);
    const std::size_t at = starts[1]; // chunk 1, a full one
    const ChunkFields c = chunkAt(clean, at);
    ASSERT_EQ(c.count, Trace::kBlockRecords);
    ASSERT_GE(c.tableLen, 2u);
    const std::size_t words =
        at + wire::kChunkHeaderBytes + c.tableLen * sizeof(std::uint64_t);

    const auto patch32 = [&](std::size_t off, std::uint32_t v) {
        std::string b = clean;
        std::memcpy(&b[off], &v, sizeof(v));
        return b;
    };
    const auto patchWord = [&](std::size_t k, std::uint64_t set_bits,
                               std::uint64_t clear_bits) {
        std::string b = clean;
        std::uint64_t w = 0;
        std::memcpy(&w, &b[words + 8 * k], 8);
        w = (w & ~clear_bits) | set_bits;
        std::memcpy(&b[words + 8 * k], &w, 8);
        return b;
    };
    constexpr std::uint64_t kSlotBits = std::uint64_t{0xFFF} << 51;
    const std::uint64_t out_of_table = std::uint64_t{c.tableLen} << 51;
    std::uint64_t insts = 0;
    std::memcpy(&insts, &clean[at + 16], 8);

    struct Case
    {
        std::string what;
        std::string bytes;
        std::string needle;
    };
    std::vector<Case> cases = {
        {"table length 0", patch32(at + 4, 0), "PC-table length 0"},
        {"table length above the count",
         patch32(at + 4, c.count + 1), "PC-table length"},
        {"nonzero reserved field", patch32(at + 12, 1),
         "reserved header field"},
        {"short record count", patch32(at, c.count - 1),
         "only the last chunk may be short"},
        {"slot past the table in the first word",
         patchWord(0, out_of_table, kSlotBits), "outside its"},
        {"slot past the table in the last word",
         patchWord(c.count - 1, kSlotBits, 0), "outside its"},
        {"reserved bit 63 set", patchWord(7, std::uint64_t{1} << 63, 0),
         "reserved bit 63"},
        {"instruction total one high", clean,
         "instruction count does not match its records"},
    };
    std::memcpy(&cases.back().bytes[at + 16], &(++insts), 8);
    for (auto& [what, bytes, needle] : cases) {
        SCOPED_TRACE(what);
        std::uint32_t table_len = 0;
        std::memcpy(&table_len, &bytes[at + 4], 4);
        if (table_len >= 1 && table_len <= c.count)
            resealChunk(bytes, at, 1);
        expectCorrupt(bytes, needle);
    }
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
    const Trace original = multiChunkTrace(2, 3);
    const std::size_t chunks = original.blockCount();
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
    // Both modes allocate the buffer chunks are decoded into.
    for (const auto mode : kModes) {
        fault::Scoped f("stream.read.alloc", spec);
        EXPECT_EQ(loadOutcome(p.str(), mode).first, ErrorCode::Resource)
            << modeName(mode);
    }
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

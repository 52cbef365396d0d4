/**
 * @file
 * The trace file codec. Format v4 is the only on-disk trace format;
 * FileTraceSource is its one reader and ChunkedTraceWriter its one
 * writer (saveTrace in trace/trace_io.hpp is a convenience over the
 * writer). A chunk is one in-memory Trace block (trace/trace.hpp), so
 * the file and a resident trace share one codec: the writer encodes
 * with Trace::Encoder, saveTrace copies a Trace's blocks as stored,
 * and the reader decodes with Trace::decodeBlock.
 *
 * Layout (little-endian, every field 8-byte aligned), chunked so
 * multi-GB traces stream in bounded memory and corruption is localized
 * to one chunk:
 *
 *   28-byte fixed header  magic "MRPT", u32 version=4,
 *                         u64 instructions, u64 record count,
 *                         u32 name length
 *   name bytes, zero pad  pad chosen so the chunks land 8-byte aligned
 *   u32 header CRC-32     covers every byte above
 *   chunks                each one Trace block of min(4096, records
 *                         left) records: u32 record count, u32
 *                         PC-table length, u32 CRC-32, u32 zero,
 *                         u64 instructions, then the block's PC table
 *                         (u64 each) and its words (u64 each: bits
 *                         0-50 the packed record, 51-62 a slot into
 *                         the table, 63 zero). The CRC covers the
 *                         chunk's index in the file as a u64, every
 *                         other header field, the table and the words,
 *                         so each chunk is bound to its position and a
 *                         flipped bit is reported with the chunk's
 *                         byte offset
 *
 * Formats v1-v3 share the magic and the version field but are not
 * read: they fail with CorruptInput naming the version. Every trace is
 * generated, so the way forward is to regenerate it:
 * `mrp_sim_cli --benchmark NAME --insts N --dump FILE`.
 *
 * The reader validates every length field against the bytes actually
 * remaining before any allocation, each chunk's record count and
 * table length against the header, each chunk's CRC, then, while
 * decoding, every slot against its table, every reserved bit, and the
 * chunk's instruction total; the file totals at end of stream. All
 * failures are typed FatalErrors (CorruptInput/Io), never crashes.
 *
 * Fault-injection sites (see util/fault_injection.hpp):
 *   "stream.open"          IoError — fail FileTraceSource's open/stat
 *   "stream.read"          IoError — fail a chunk read (per chunk)
 *   "stream.read.alloc"    AllocFail — chunk-buffer allocation fails
 *   "stream.mmap"          IoError — fail the mmap itself
 *   "stream.write"         IoError — fail ChunkedTraceWriter's tmp
 *                          creation (first hit) or a chunk write
 *   "stream.write.corrupt" CorruptByte — flip a bit in a chunk header
 *                          as it is written
 *   "stream.write.finish"  IoError — fail the finalize/fsync/rename
 */

#ifndef MRP_TRACE_STREAM_READER_HPP
#define MRP_TRACE_STREAM_READER_HPP

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "trace/source.hpp"

namespace mrp::trace {

/** How FileTraceSource gets bytes off the disk. */
enum class FileMode {
    Buffered, //!< plain read(2)-style buffered reads (default)
    Mmap,     //!< memory-map; chunks decode straight from the map
};

/** Execution counters of a streaming source (perf introspection;
 * never part of deterministic reports). */
struct StreamStats
{
    std::uint64_t chunksDecoded = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t maxQueueDepth = 0; //!< decode-ahead only
};

/**
 * Streams a v4 trace file chunk by chunk in O(chunk) memory, serving
 * each chunk's records decoded into one reused buffer. Buffered mode
 * reads each chunk into a reused byte buffer; mmap mode decodes
 * straight from the map and drops already-served pages via madvise so
 * residency stays bounded. Both modes share one decoder: the header is
 * validated on construction, each chunk as it is pulled, and the
 * totals at end of stream.
 */
class FileTraceSource final : public TraceSource
{
  public:
    explicit FileTraceSource(std::string path,
                             FileMode mode = FileMode::Buffered);
    ~FileTraceSource() override;

    FileTraceSource(const FileTraceSource&) = delete;
    FileTraceSource& operator=(const FileTraceSource&) = delete;

    const std::string& name() const override { return name_; }
    InstCount instructions() const override { return instructions_; }
    std::span<const Record> nextChunk() override;
    void reset() override;

    const StreamStats& stats() const { return stats_; }
    FileMode mode() const { return mode_; }

  private:
    void mapFile(); //!< map all fileBytes_ at map_, closing fd_
    void release(); //!< unmap, close
    /** The file from byte @p at on, with at least min(@p want, bytes
     * left) of it resident: in the map, or in the read-ahead window. */
    const unsigned char* bytesAt(std::uint64_t at, std::uint64_t want);

    std::string path_;
    FileMode mode_;
    std::string name_;
    InstCount instructions_ = 0;
    std::uint64_t recordCount_ = 0;
    std::uint64_t fileBytes_ = 0;
    std::uint64_t payloadStart_ = 0; //!< offset of the first chunk

    // Stream position (both modes).
    std::uint64_t offset_ = 0;       //!< next unread byte
    std::uint64_t recordsServed_ = 0;
    InstCount instsServed_ = 0;

    std::vector<Record> buffer_; //!< the served chunk, decoded

    // Buffered mode.
    int fd_ = -1;
    std::vector<std::uint64_t> window_; //!< read-ahead file bytes
    std::uint64_t windowStart_ = 0;     //!< file offset of window_[0]
    std::uint64_t windowEnd_ = 0;       //!< one past its last byte

    // Mmap mode.
    const unsigned char* map_ = nullptr;
    std::uint64_t lastChunkStart_ = 0; //!< for madvise(DONTNEED)

    StreamStats stats_;
};

/**
 * Overlapped decoding: a background thread pulls chunks from any
 * inner source into a bounded queue (double-buffered by default), so
 * decode/generation cost hides behind simulation. The chunk sequence
 * — and therefore every simulation result — is identical to
 * consuming the inner source directly; only the wall-clock overlap
 * changes. Errors raised inside the worker (I/O faults, corrupt
 * chunks) surface on the consumer's nextChunk() at the position the
 * failing chunk would have been served. Destroying the source
 * mid-stream stops and joins the worker cleanly.
 */
class DecodeAheadSource final : public TraceSource
{
  public:
    explicit DecodeAheadSource(std::unique_ptr<TraceSource> inner,
                               std::size_t queue_depth = 2);
    ~DecodeAheadSource() override;

    DecodeAheadSource(const DecodeAheadSource&) = delete;
    DecodeAheadSource& operator=(const DecodeAheadSource&) = delete;

    const std::string& name() const override { return name_; }
    InstCount instructions() const override { return instructions_; }
    std::span<const Record> nextChunk() override;
    void reset() override;

    /** Queue high-water mark and chunk counts (execution artifact). */
    StreamStats stats() const;

  private:
    void start();
    void stop();
    void workerLoop();

    std::unique_ptr<TraceSource> inner_;
    std::string name_;
    InstCount instructions_ = 0;
    std::size_t depth_;

    mutable std::mutex mutex_;
    std::condition_variable canProduce_;
    std::condition_variable canConsume_;
    std::deque<std::vector<Record>> queue_;
    std::vector<std::vector<Record>> freelist_;
    std::vector<Record> current_; //!< chunk the consumer is holding
    std::exception_ptr error_;
    bool innerDone_ = false;
    bool stop_ = false;
    std::thread worker_;

    StreamStats stats_;
};

/**
 * The v4 encoder, incremental: appends chunks as they are produced,
 * so a trace larger than RAM can be generated and saved in one
 * streaming pass. Writes go to "<path>.tmp.<pid>"; finish() patches
 * the header totals, fsyncs, and renames into place, so a crash
 * mid-write can never leave a torn file at the destination path.
 * Every chunk is one Trace block: the writer encodes records with
 * Trace::Encoder and writes each block once it holds
 * Trace::kBlockRecords records, and the last when finished. So the
 * bytes depend only on the records, never on how they were split
 * across append() calls.
 */
class ChunkedTraceWriter
{
  public:
    /** Throws Config for a name longer than the format allows (before
     * anything is created on disk), Io if the tmp cannot be created. */
    ChunkedTraceWriter(std::string path, std::string trace_name);
    ~ChunkedTraceWriter(); //!< abandons (removes) the tmp if unfinished

    ChunkedTraceWriter(const ChunkedTraceWriter&) = delete;
    ChunkedTraceWriter& operator=(const ChunkedTraceWriter&) = delete;

    /** Append @p records (a block is written once full; a partial
     * one waits for more records or finish()). */
    void append(std::span<const Record> records);

    /**
     * Append @p trace's blocks as stored, neither decoded nor
     * re-encoded. The writer must be on a block boundary: no partial
     * block may be pending, so a fresh writer or one fed only whole
     * blocks (saveTrace uses a fresh one).
     */
    void append(const Trace& trace);

    /** Drain @p source into the file chunk by chunk. */
    void appendAll(TraceSource& source);

    /** Flush, patch totals, fsync, rename into place. */
    void finish();

    InstCount instructions() const { return instructions_; }
    std::uint64_t recordCount() const { return recordCount_; }

  private:
    void writeChunk(Trace::Block block);

    std::string path_;
    std::string tmpPath_;
    std::string name_;
    std::FILE* file_ = nullptr;
    Trace::Encoder pending_; //!< the partial block, if any
    InstCount instructions_ = 0;
    std::uint64_t recordCount_ = 0;
    bool finished_ = false;
};

} // namespace mrp::trace

#endif // MRP_TRACE_STREAM_READER_HPP

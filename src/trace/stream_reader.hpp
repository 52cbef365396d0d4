/**
 * @file
 * The trace file codec. Format v3 is the only on-disk trace format;
 * FileTraceSource is its one reader and ChunkedTraceWriter its one
 * writer (saveTrace in trace/trace_io.hpp is a convenience over the
 * writer).
 *
 * Layout (little-endian), chunked so multi-GB traces stream in bounded
 * memory and corruption is localized to one chunk:
 *
 *   32-byte fixed header  magic "MRPT", u32 version=3,
 *                         u64 instructions, u64 record count,
 *                         u32 name length, u32 chunk capacity
 *                         (records per full chunk; the last may be
 *                         short)
 *   name bytes, zero pad  pad chosen so records land 16-byte aligned
 *   u32 header CRC-32     covers every byte above
 *   chunks                each: u32 record count, u32 CRC-32,
 *                         u64 instructions, then the packed records;
 *                         the CRC covers the two count fields and the
 *                         records, so every chunk is independently
 *                         decodable and a flipped bit is reported
 *                         with the chunk's byte offset
 *
 * Formats v1/v2 share the magic and the version field but are not
 * read: they fail with CorruptInput naming the version. An earlier
 * build that still reads them converts a file with
 * `mrp_sim_cli --trace OLD --dump NEW`.
 *
 * The reader validates every length field against the bytes actually
 * remaining before any allocation, and chunk/record totals against
 * the header at end of stream. All failures are typed FatalErrors
 * (CorruptInput/Io), never crashes.
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
#include <iosfwd>
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
    Mmap,     //!< memory-map; chunks are zero-copy spans into the map
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
 * Streams a v3 trace file chunk by chunk in O(chunk) memory. Buffered
 * mode reads each chunk into one reused buffer; mmap mode serves
 * zero-copy spans of the map and drops already-served pages via
 * madvise so residency stays bounded. Both modes share one decoder:
 * the header is validated on construction, each chunk as it is pulled,
 * and the totals at end of stream.
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
    void openBuffered(); //!< open file_ and measure fileBytes_
    void openMapped();   //!< map all fileBytes_ at map_

    std::string path_;
    FileMode mode_;
    std::string name_;
    InstCount instructions_ = 0;
    std::uint64_t recordCount_ = 0;
    std::uint32_t chunkCapacity_ = 0;
    std::uint64_t fileBytes_ = 0;
    std::uint64_t payloadStart_ = 0; //!< offset of the first chunk

    // Stream position (both modes).
    std::uint64_t offset_ = 0;       //!< next unread byte
    std::uint64_t recordsServed_ = 0;
    InstCount instsServed_ = 0;

    // Buffered mode.
    std::unique_ptr<std::ifstream> file_;
    std::vector<Record> buffer_;

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
 * The v3 encoder, incremental: appends chunks as they are produced,
 * so a trace larger than RAM can be generated and saved in one
 * streaming pass. Writes go to "<path>.tmp.<pid>"; finish() patches
 * the header totals, fsyncs, and renames into place, so a crash
 * mid-write can never leave a torn file at the destination path.
 * Chunk boundaries depend only on the record count, never on how the
 * records were split across append() calls.
 */
class ChunkedTraceWriter
{
  public:
    /** Throws Config for a name longer than the format allows (before
     * anything is created on disk), Io if the tmp cannot be created. */
    ChunkedTraceWriter(std::string path, std::string trace_name,
                       std::size_t chunk_records = kDefaultChunkRecords);
    ~ChunkedTraceWriter(); //!< abandons (removes) the tmp if unfinished

    ChunkedTraceWriter(const ChunkedTraceWriter&) = delete;
    ChunkedTraceWriter& operator=(const ChunkedTraceWriter&) = delete;

    /**
     * Append @p records as one or more chunks (splits at the chunk
     * capacity; buffers partial chunks until full or finished).
     */
    void append(std::span<const Record> records);

    /** Drain @p source into the file chunk by chunk. */
    void appendAll(TraceSource& source);

    /** Flush, patch totals, fsync, rename into place. */
    void finish();

    InstCount instructions() const { return instructions_; }
    std::uint64_t recordCount() const { return recordCount_; }

  private:
    void writeChunk(const Record* records, std::size_t n);

    std::string path_;
    std::string tmpPath_;
    std::string name_;
    std::size_t chunkRecords_;
    std::FILE* file_ = nullptr;
    std::vector<Record> pending_;
    InstCount instructions_ = 0;
    std::uint64_t recordCount_ = 0;
    bool finished_ = false;
};

} // namespace mrp::trace

#endif // MRP_TRACE_STREAM_READER_HPP

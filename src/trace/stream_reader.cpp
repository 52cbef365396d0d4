#include "trace/stream_reader.hpp"

#include <errno.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <new>
#include <utility>

#include "prof/profiler.hpp"
#include "trace/wire_format.hpp"
#include "util/crc32.hpp"
#include "util/fault_injection.hpp"
#include "util/logging.hpp"

namespace mrp::trace {

namespace {

using namespace wire;

template <typename T>
void
put(std::string& buf, const T& v)
{
    buf.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

std::string
hex32(std::uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%08x", v);
    return buf;
}

/**
 * Bounds-checked cursor over resident file bytes, so the buffered and
 * mmap read paths share one header/chunk parser. Every read is
 * validated against the bytes remaining in the file before it
 * happens, so corrupt length fields fail with the offset where the
 * data ran dry instead of driving allocations.
 */
class ByteCursor
{
  public:
    ByteCursor(const unsigned char* mem, std::uint64_t avail)
        : mem_(mem), remaining_(avail)
    {
    }

    std::uint64_t offset() const { return offset_; }
    std::uint64_t remaining() const { return remaining_; }

    void
    read(void* dst, std::uint64_t size, const char* what)
    {
        std::memcpy(dst, take(size, what), size);
    }

    /** Consume @p size bytes without copying. */
    const unsigned char*
    take(std::uint64_t size, const char* what)
    {
        if (size > remaining_) [[unlikely]]
            fatal(ErrorCode::CorruptInput,
                  std::string("truncated trace stream: need ") +
                      std::to_string(size) + " byte(s) of " + what +
                      " at offset " + std::to_string(offset_) +
                      ", only " + std::to_string(remaining_) +
                      " remain");
        const unsigned char* p = mem_ + offset_;
        offset_ += size;
        remaining_ -= size;
        return p;
    }

    template <typename T>
    T
    get(const char* what)
    {
        T v{};
        read(&v, sizeof(T), what);
        return v;
    }

  private:
    const unsigned char* mem_;
    std::uint64_t offset_ = 0;
    std::uint64_t remaining_;
};

/** Bytes of the largest chunk: a full block whose every record has
 * its own PC. */
constexpr std::uint64_t kMaxChunkBytes =
    kChunkHeaderBytes + 2 * Trace::kBlockRecords * sizeof(std::uint64_t);

/** Buffered reads fetch this much of the file per read call, so one
 * call serves many chunks. */
constexpr std::uint64_t kReadAheadBytes = std::uint64_t{1} << 20;
static_assert(kReadAheadBytes >= kMaxChunkBytes &&
              kReadAheadBytes >= payloadStart(kMaxNameLen));

/** Decoded v4 header. */
struct Header
{
    std::string name;
    std::uint64_t instructions = 0;
    std::uint64_t recordCount = 0;
    std::uint64_t payloadStart = 0;
};

/**
 * Parse and CRC-validate a v4 header from @p in (positioned at the
 * magic). Throws CorruptInput on any malformed field, and on any
 * version but 4.
 */
Header
parseHeader(ByteCursor& in)
{
    char magic[4] = {};
    in.read(magic, sizeof(magic), "magic");
    fatalIf(std::memcmp(magic, kMagic, sizeof(kMagic)) != 0,
            ErrorCode::CorruptInput, "not a trace stream (bad magic)");
    const auto version = in.get<std::uint32_t>("version");
    if (version != kVersion) [[unlikely]]
        fatal(ErrorCode::CorruptInput,
              "unsupported trace format version " +
                  std::to_string(version) + ": only v" +
                  std::to_string(kVersion) +
                  " files are read; regenerate the trace with "
                  "'mrp_sim_cli --benchmark NAME --insts N --dump FILE'");

    Header h;
    h.instructions = in.get<std::uint64_t>("instruction count");
    h.recordCount = in.get<std::uint64_t>("record count");
    const auto name_len = in.get<std::uint32_t>("name length");
    fatalIf(name_len > kMaxNameLen, ErrorCode::CorruptInput,
            "implausible trace name length " +
                std::to_string(name_len) + " (max " +
                std::to_string(kMaxNameLen) + ")");

    Crc32 crc;
    crc.update(magic, sizeof(magic));
    crc.update(&version, sizeof(version));
    crc.update(&h.instructions, sizeof(h.instructions));
    crc.update(&h.recordCount, sizeof(h.recordCount));
    crc.update(&name_len, sizeof(name_len));

    h.name.resize(name_len);
    if (name_len > 0)
        in.read(h.name.data(), name_len, "name");
    crc.update(h.name.data(), h.name.size());

    char pad[8] = {};
    const std::uint64_t pad_len = namePad(name_len);
    if (pad_len > 0)
        in.read(pad, pad_len, "header padding");
    crc.update(pad, pad_len);

    const auto stored = in.get<std::uint32_t>("header CRC");
    fatalIf(stored != crc.value(), ErrorCode::CorruptInput,
            "trace header CRC mismatch: stored " + hex32(stored) +
                ", computed " + hex32(crc.value()));
    h.payloadStart = payloadStart(name_len);
    return h;
}

/** Serialized v4 header (fixed fields, name, pad, CRC). */
std::string
headerBytes(const std::string& name, std::uint64_t instructions,
            std::uint64_t record_count)
{
    fatalIf(name.size() > kMaxNameLen, ErrorCode::Config,
            "trace name too long for serialization: " +
                std::to_string(name.size()) + " bytes");
    std::string buf;
    buf.reserve(payloadStart(name.size()));
    buf.append(kMagic, sizeof(kMagic));
    put(buf, kVersion);
    put(buf, instructions);
    put(buf, record_count);
    put(buf, static_cast<std::uint32_t>(name.size()));
    buf.append(name.data(), name.size());
    buf.append(namePad(name.size()), '\0');
    put(buf, Crc32::of(buf.data(), buf.size()));
    return buf;
}

/** Fields of one chunk header, plus where it sits in the file. */
struct ChunkHead
{
    std::uint32_t count = 0;
    std::uint32_t tableLen = 0;
    std::uint32_t crc = 0;
    std::uint32_t zero = 0;
    std::uint64_t instructions = 0;
    std::uint64_t index = 0;      //!< the chunk's position in the file
    std::uint64_t fileOffset = 0; //!< of the chunk header itself

    /** Bytes of the table and words that follow the header. */
    std::uint64_t
    payloadBytes() const
    {
        return (std::uint64_t{tableLen} + count) * sizeof(std::uint64_t);
    }
};

/** Chunk CRC: covers the chunk index, every header field but the CRC,
 * and the block's table and words. */
std::uint32_t
chunkCrc(const ChunkHead& c, Trace::Block block)
{
    Crc32 crc;
    crc.update(&c.index, sizeof(c.index));
    crc.update(&c.count, sizeof(c.count));
    crc.update(&c.tableLen, sizeof(c.tableLen));
    crc.update(&c.zero, sizeof(c.zero));
    crc.update(&c.instructions, sizeof(c.instructions));
    crc.update(block.pcs.data(), block.pcs.size_bytes());
    crc.update(block.words.data(), block.words.size_bytes());
    return crc.value();
}

std::string
chunkAt(const ChunkHead& c)
{
    return "chunk " + std::to_string(c.index) + " at offset " +
           std::to_string(c.fileOffset);
}

/**
 * Read chunk @p index's header from @p in and check, before anything
 * is allocated for it, its record count against the @p records_left
 * (at least one) the file header still owes, its table length against
 * its record count, and its payload against the bytes physically
 * remaining. @p base is the absolute file offset of the cursor's
 * origin, so diagnostics can name the real position.
 *
 * The writer fills every chunk to Trace::kBlockRecords and writes the
 * one short chunk last, so a count is valid only if it is exactly
 * min(kBlockRecords, records_left).
 */
ChunkHead
readChunkHead(ByteCursor& in, std::uint64_t index,
              std::uint64_t records_left, std::uint64_t base)
{
    ChunkHead c;
    c.index = index;
    c.fileOffset = base + in.offset();
    c.count = in.get<std::uint32_t>("chunk record count");
    c.tableLen = in.get<std::uint32_t>("chunk PC-table length");
    c.crc = in.get<std::uint32_t>("chunk CRC");
    c.zero = in.get<std::uint32_t>("chunk reserved field");
    c.instructions = in.get<std::uint64_t>("chunk instruction count");
    const std::uint64_t expected =
        std::min<std::uint64_t>(Trace::kBlockRecords, records_left);
    if (c.count != expected) [[unlikely]]
        fatal(ErrorCode::CorruptInput,
              "corrupt " + chunkAt(c) + ": record count " +
                  std::to_string(c.count) + ", expected " +
                  std::to_string(expected) + " (" +
                  std::to_string(records_left) +
                  " record(s) left; only the last chunk may be short)");
    if (c.tableLen == 0 || c.tableLen > c.count) [[unlikely]]
        fatal(ErrorCode::CorruptInput,
              "corrupt " + chunkAt(c) + ": PC-table length " +
                  std::to_string(c.tableLen) + " outside [1, " +
                  std::to_string(c.count) + "]");
    if (c.zero != 0) [[unlikely]]
        fatal(ErrorCode::CorruptInput,
              "corrupt " + chunkAt(c) + ": reserved header field is " +
                  std::to_string(c.zero) + ", not 0");
    if (c.payloadBytes() > in.remaining()) [[unlikely]]
        fatal(ErrorCode::CorruptInput,
              "truncated trace stream: " + chunkAt(c) + " needs " +
                  std::to_string(c.payloadBytes()) +
                  " payload byte(s) but only " +
                  std::to_string(in.remaining()) + " remain");
    return c;
}

/**
 * Check @p payload (the chunk's table, then its words) against its
 * CRC, then decode it into @p out with Trace::decodeBlock<true>, which
 * checks every word as it goes; any finding is raised once the whole
 * block is decoded.
 */
void
decodeChunk(const ChunkHead& c, const std::uint64_t* payload,
            Record* out)
{
    const Trace::Block block = {{payload, c.tableLen},
                                {payload + c.tableLen, c.count}};
    const std::uint32_t computed = chunkCrc(c, block);
    // The messages are built only on failure: this runs per chunk.
    if (computed != c.crc) [[unlikely]]
        fatal(ErrorCode::CorruptInput,
              "chunk CRC mismatch in " + chunkAt(c) + ": stored " +
                  hex32(c.crc) + ", computed " + hex32(computed));
    const Trace::BlockCheck check = Trace::decodeBlock<true>(block, out);
    if (check.reservedBitSet) [[unlikely]]
        fatal(ErrorCode::CorruptInput,
              "corrupt " + chunkAt(c) +
                  ": a record has its reserved bit 63 set");
    if (check.slotOutsideTable) [[unlikely]]
        fatal(ErrorCode::CorruptInput,
              "corrupt " + chunkAt(c) + ": a record's PC slot is outside "
                  "its " + std::to_string(c.tableLen) + "-entry table");
    if (check.instructions != c.instructions) [[unlikely]]
        fatal(ErrorCode::CorruptInput,
              chunkAt(c) +
                  ": instruction count does not match its records");
}

/** Reject a record count that cannot fit in the @p payload_avail bytes
 * after the header (chunk headers and tables included) before
 * anything is allocated. */
void
validatePayloadFits(const Header& h, std::uint64_t payload_avail)
{
    constexpr std::uint64_t kWord = sizeof(std::uint64_t);
    fatalIf(h.recordCount > payload_avail / kWord,
            ErrorCode::CorruptInput,
            "truncated trace stream: header claims " +
                std::to_string(h.recordCount) +
                " records but only " +
                std::to_string(payload_avail) +
                " payload byte(s) remain after offset " +
                std::to_string(h.payloadStart));
    // Each chunk has a header and at least one table entry.
    const std::uint64_t chunks =
        (h.recordCount + Trace::kBlockRecords - 1) / Trace::kBlockRecords;
    fatalIf(h.recordCount * kWord +
                    chunks * (kChunkHeaderBytes + kWord) >
                payload_avail,
            ErrorCode::CorruptInput,
            "truncated trace stream: " + std::to_string(chunks) +
                " chunk(s) of " + std::to_string(h.recordCount) +
                " records do not fit in the " +
                std::to_string(payload_avail) +
                " payload byte(s) after offset " +
                std::to_string(h.payloadStart));
}

} // namespace

// ---------------------------------------------------------------------------
// FileTraceSource

FileTraceSource::FileTraceSource(std::string path, FileMode mode)
    : path_(std::move(path)), mode_(mode)
{
    fault::checkIo("stream.open", "opening " + path_);
    if (mode_ == FileMode::Mmap)
        fault::checkIo("stream.mmap", "mapping " + path_);
    fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
    fatalIf(fd_ < 0, ErrorCode::Io, "cannot open for reading: " + path_);
    try {
        struct ::stat st = {};
        fatalIf(::fstat(fd_, &st) != 0 || st.st_size < 0, ErrorCode::Io,
                "cannot stat " + path_);
        fileBytes_ = static_cast<std::uint64_t>(st.st_size);
        if (mode_ == FileMode::Mmap)
            mapFile();
        else
            window_.resize(kReadAheadBytes / sizeof(std::uint64_t));

        ByteCursor in(bytesAt(0, payloadStart(kMaxNameLen)), fileBytes_);
        const Header h = parseHeader(in);
        validatePayloadFits(h, in.remaining());
        name_ = h.name;
        instructions_ = h.instructions;
        recordCount_ = h.recordCount;
        payloadStart_ = h.payloadStart;
        offset_ = payloadStart_;
    } catch (...) {
        // A throwing constructor runs no destructor: release here.
        release();
        throw;
    }
}

FileTraceSource::~FileTraceSource() { release(); }

void
FileTraceSource::release()
{
    if (map_ != nullptr)
        ::munmap(const_cast<unsigned char*>(map_), fileBytes_);
    map_ = nullptr;
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
}

void
FileTraceSource::mapFile()
{
    fatalIf(fileBytes_ == 0, ErrorCode::CorruptInput,
            "empty trace file: " + path_);
    void* map = ::mmap(nullptr, fileBytes_, PROT_READ, MAP_PRIVATE, fd_,
                       0);
    ::close(fd_);
    fd_ = -1;
    fatalIf(map == MAP_FAILED, ErrorCode::Io,
            "mmap failed for " + path_);
    map_ = static_cast<const unsigned char*>(map);
    ::madvise(const_cast<unsigned char*>(map_), fileBytes_,
              MADV_SEQUENTIAL);
}

const unsigned char*
FileTraceSource::bytesAt(std::uint64_t at, std::uint64_t want)
{
    if (map_ != nullptr)
        return map_ + at;
    auto* window = reinterpret_cast<unsigned char*>(window_.data());
    const std::uint64_t need = std::min(want, fileBytes_ - at);
    if (at < windowStart_ || at + need > windowEnd_) {
        // Keep the window's unread tail and read ahead from there: one
        // read call serves many chunks.
        const std::uint64_t keep =
            at >= windowStart_ && at < windowEnd_ ? windowEnd_ - at : 0;
        if (keep > 0)
            std::memmove(window, window + (at - windowStart_), keep);
        const std::uint64_t fill =
            std::min<std::uint64_t>(kReadAheadBytes, fileBytes_ - at);
        std::uint64_t done = keep;
        while (done < fill) {
            const ::ssize_t n = ::pread(fd_, window + done, fill - done,
                                        static_cast<::off_t>(at + done));
            if (n < 0 && errno == EINTR)
                continue;
            fatalIf(n <= 0, ErrorCode::Io,
                    "read failed at offset " + std::to_string(at + done) +
                        " of " + path_);
            done += static_cast<std::uint64_t>(n);
        }
        windowStart_ = at;
        windowEnd_ = at + fill;
    }
    return window + (at - windowStart_);
}

std::span<const Record>
FileTraceSource::nextChunk()
{
    MRP_PROF_SCOPE("trace.decode");
    if (recordsServed_ == recordCount_) {
        fatalIf(offset_ != fileBytes_, ErrorCode::CorruptInput,
                std::to_string(fileBytes_ - offset_) +
                    " trailing byte(s) after the final chunk");
        fatalIf(instsServed_ != instructions_, ErrorCode::CorruptInput,
                "trace header instruction count does not match records");
        return {};
    }
    // A fault site's message is built before the call: skip that per
    // chunk unless some site is armed.
    if (fault::anyArmed()) [[unlikely]]
        fault::checkIo("stream.read",
                       "reading chunk at offset " +
                           std::to_string(offset_) + " of " + path_);

    if (map_ != nullptr) {
        // Drop the pages of already-served chunks, a read-ahead's worth
        // at a time, so residency stays bounded no matter how large the
        // mapped file is; they refault from the file cleanly after a
        // reset().
        const auto page =
            static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
        const std::uint64_t drop_end = offset_ & ~(page - 1);
        if (drop_end >= lastChunkStart_ + kReadAheadBytes) {
            ::madvise(const_cast<unsigned char*>(map_) + lastChunkStart_,
                      drop_end - lastChunkStart_, MADV_DONTNEED);
            lastChunkStart_ = drop_end;
        }
    }
    ByteCursor in(bytesAt(offset_, kMaxChunkBytes), fileBytes_ - offset_);
    const ChunkHead c =
        readChunkHead(in, recordsServed_ / Trace::kBlockRecords,
                      recordCount_ - recordsServed_, offset_);
    try {
        if (fault::anyArmed()) [[unlikely]]
            fault::checkAlloc("stream.read.alloc");
        buffer_.resize(c.count);
    } catch (const std::bad_alloc&) {
        fatal(ErrorCode::Resource,
              "out of memory streaming trace chunk (" +
                  std::to_string(c.count) + " records)");
    }
    // Chunks start 8-byte aligned in the file, and so in the window
    // and in the page-aligned map.
    const auto* payload = reinterpret_cast<const std::uint64_t*>(
        in.take(c.payloadBytes(), "chunk payload"));
    decodeChunk(c, payload, buffer_.data());

    offset_ += in.offset();
    recordsServed_ += c.count;
    instsServed_ += c.instructions;
    stats_.chunksDecoded += 1;
    stats_.bytesRead += in.offset();
    return {buffer_.data(), c.count};
}

void
FileTraceSource::reset()
{
    offset_ = payloadStart_;
    recordsServed_ = 0;
    instsServed_ = 0;
    lastChunkStart_ = 0;
}

// ---------------------------------------------------------------------------
// DecodeAheadSource

DecodeAheadSource::DecodeAheadSource(
    std::unique_ptr<TraceSource> inner, std::size_t queue_depth)
    : inner_(std::move(inner)), name_(inner_->name()),
      instructions_(inner_->instructions()),
      depth_(std::max<std::size_t>(1, queue_depth))
{
    start();
}

DecodeAheadSource::~DecodeAheadSource() { stop(); }

void
DecodeAheadSource::start()
{
    stop_ = false;
    innerDone_ = false;
    error_ = nullptr;
    queue_.clear();
    worker_ = std::thread([this] { workerLoop(); });
}

void
DecodeAheadSource::stop()
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        stop_ = true;
    }
    canProduce_.notify_all();
    canConsume_.notify_all();
    if (worker_.joinable())
        worker_.join();
}

void
DecodeAheadSource::workerLoop()
{
    try {
        for (;;) {
            std::vector<Record> buf;
            {
                std::lock_guard<std::mutex> lk(mutex_);
                if (stop_)
                    return;
                if (!freelist_.empty()) {
                    buf = std::move(freelist_.back());
                    freelist_.pop_back();
                }
            }
            // The worker is the only thread touching inner_ while it
            // runs; reset()/stop() join before touching it.
            const auto chunk = inner_->nextChunk();
            if (chunk.empty()) {
                std::lock_guard<std::mutex> lk(mutex_);
                innerDone_ = true;
                canConsume_.notify_one();
                return;
            }
            buf.assign(chunk.begin(), chunk.end());
            std::unique_lock<std::mutex> lk(mutex_);
            canProduce_.wait(lk, [this] {
                return stop_ || queue_.size() < depth_;
            });
            if (stop_)
                return;
            queue_.push_back(std::move(buf));
            stats_.chunksDecoded += 1;
            stats_.bytesRead += chunk.size() * sizeof(Record);
            stats_.maxQueueDepth = std::max<std::uint64_t>(
                stats_.maxQueueDepth, queue_.size());
            canConsume_.notify_one();
        }
    } catch (...) {
        std::lock_guard<std::mutex> lk(mutex_);
        error_ = std::current_exception();
        innerDone_ = true;
        canConsume_.notify_one();
    }
}

std::span<const Record>
DecodeAheadSource::nextChunk()
{
    std::unique_lock<std::mutex> lk(mutex_);
    if (!current_.empty()) {
        freelist_.push_back(std::move(current_));
        current_ = std::vector<Record>();
    }
    canConsume_.wait(lk,
                     [this] { return !queue_.empty() || innerDone_; });
    if (!queue_.empty()) {
        current_ = std::move(queue_.front());
        queue_.pop_front();
        canProduce_.notify_one();
        return {current_.data(), current_.size()};
    }
    // Queued good chunks drain before an error surfaces, so faults
    // appear at the position the failing chunk would have been served.
    if (error_)
        std::rethrow_exception(error_);
    return {};
}

void
DecodeAheadSource::reset()
{
    stop();
    inner_->reset();
    current_.clear();
    start();
}

StreamStats
DecodeAheadSource::stats() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return stats_;
}

// ---------------------------------------------------------------------------
// ChunkedTraceWriter

ChunkedTraceWriter::ChunkedTraceWriter(std::string path,
                                       std::string trace_name)
    : path_(std::move(path)),
      tmpPath_(path_ + ".tmp." + std::to_string(::getpid())),
      name_(std::move(trace_name))
{
    // Placeholder header; finish() rewrites it with the real totals.
    // Built before the tmp file exists, because it rejects an over-long
    // name and a throwing constructor runs no destructor to clean up.
    const std::string header = headerBytes(name_, 0, 0);
    fault::checkIo("stream.write", "creating " + tmpPath_);
    file_ = std::fopen(tmpPath_.c_str(), "wb");
    fatalIf(file_ == nullptr, ErrorCode::Io,
            "cannot open for writing: " + tmpPath_);
    if (std::fwrite(header.data(), 1, header.size(), file_) !=
        header.size()) {
        std::fclose(file_);
        std::remove(tmpPath_.c_str());
        fatal(ErrorCode::Io, "failed writing header to " + tmpPath_);
    }
}

ChunkedTraceWriter::~ChunkedTraceWriter()
{
    if (!finished_) {
        if (file_ != nullptr)
            std::fclose(file_);
        std::remove(tmpPath_.c_str());
    }
}

void
ChunkedTraceWriter::append(std::span<const Record> records)
{
    if (finished_) [[unlikely]]
        fatal(ErrorCode::Internal, "append() after finish() on " + path_);
    for (const Record& r : records) {
        pending_.append(r);
        if (pending_.size() == Trace::kBlockRecords) {
            writeChunk(pending_.lastBlock());
            pending_.clear();
        }
    }
}

void
ChunkedTraceWriter::append(const Trace& trace)
{
    if (finished_) [[unlikely]]
        fatal(ErrorCode::Internal, "append() after finish() on " + path_);
    panicIf(pending_.size() != 0,
            "ChunkedTraceWriter::append(const Trace&) off a block boundary");
    for (std::size_t i = 0; i < trace.blockCount(); ++i) {
        const Trace::Block block = trace.block(i);
        if (block.words.size() == Trace::kBlockRecords)
            writeChunk(block);
        else
            pending_.appendBlock(block); // the short last block
    }
}

void
ChunkedTraceWriter::appendAll(TraceSource& source)
{
    for (;;) {
        const auto chunk = source.nextChunk();
        if (chunk.empty())
            break;
        append(chunk);
    }
}

void
ChunkedTraceWriter::writeChunk(Trace::Block block)
{
    if (fault::anyArmed()) [[unlikely]]
        fault::checkIo("stream.write",
                       "appending a chunk to " + tmpPath_);
    ChunkHead c;
    c.count = static_cast<std::uint32_t>(block.words.size());
    c.tableLen = static_cast<std::uint32_t>(block.pcs.size());
    c.instructions = Trace::instructionsOf(block.words);
    c.index = recordCount_ / Trace::kBlockRecords;
    std::string head;
    head.reserve(kChunkHeaderBytes);
    put(head, c.count);
    put(head, c.tableLen);
    put(head, chunkCrc(c, block));
    put(head, c.zero);
    put(head, c.instructions);
    if (fault::anyArmed()) [[unlikely]]
        fault::checkCorrupt("stream.write.corrupt", head.data(),
                            head.size());
    const bool ok =
        std::fwrite(head.data(), 1, head.size(), file_) ==
            head.size() &&
        std::fwrite(block.pcs.data(), sizeof(Pc), block.pcs.size(),
                    file_) == block.pcs.size() &&
        std::fwrite(block.words.data(), sizeof(std::uint64_t),
                    block.words.size(), file_) == block.words.size();
    if (!ok) [[unlikely]]
        fatal(ErrorCode::Io, "failed writing chunk to " + tmpPath_);
    instructions_ += c.instructions;
    recordCount_ += c.count;
}

void
ChunkedTraceWriter::finish()
{
    fatalIf(finished_, ErrorCode::Internal,
            "finish() called twice on " + path_);
    if (pending_.size() != 0) {
        writeChunk(pending_.lastBlock());
        pending_.clear();
    }
    fault::checkIo("stream.write.finish", "finalizing " + path_);

    // Patch the header with the real totals, then fsync before the
    // rename so a crash can never publish a torn file at path_.
    const std::string header = headerBytes(
        name_, static_cast<std::uint64_t>(instructions_), recordCount_);
    bool ok = std::fseek(file_, 0, SEEK_SET) == 0 &&
              std::fwrite(header.data(), 1, header.size(), file_) ==
                  header.size() &&
              std::fflush(file_) == 0 &&
              ::fsync(::fileno(file_)) == 0;
    ok = (std::fclose(file_) == 0) && ok;
    file_ = nullptr;
    if (!ok) {
        std::remove(tmpPath_.c_str());
        fatal(ErrorCode::Io, "failed finalizing " + tmpPath_);
    }
    if (std::rename(tmpPath_.c_str(), path_.c_str()) != 0) {
        std::remove(tmpPath_.c_str());
        fatal(ErrorCode::Io,
              "cannot rename " + tmpPath_ + " to " + path_);
    }
    finished_ = true;

    // Best effort: persist the rename itself.
    const auto slash = path_.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path_.substr(0, slash);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
}

} // namespace mrp::trace

#include "trace/stream_reader.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
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
 * Bounds-checked cursor over either a stream or a memory range, so the
 * buffered and mmap read paths share one header/chunk parser. Every
 * read is validated against the bytes remaining before it happens, so
 * corrupt length fields fail with the offset where the data ran dry
 * instead of driving allocations.
 */
class ByteCursor
{
  public:
    ByteCursor(std::istream& is, std::uint64_t avail)
        : is_(&is), remaining_(avail)
    {
    }
    ByteCursor(const unsigned char* mem, std::uint64_t avail)
        : mem_(mem), remaining_(avail)
    {
    }

    std::uint64_t offset() const { return offset_; }
    std::uint64_t remaining() const { return remaining_; }

    void
    read(void* dst, std::uint64_t size, const char* what)
    {
        require(size, what);
        if (mem_ != nullptr) {
            std::memcpy(dst, mem_ + offset_, size);
        } else {
            is_->read(static_cast<char*>(dst),
                      static_cast<std::streamsize>(size));
            fatalIf(!*is_, ErrorCode::Io,
                    std::string("read failed at offset ") +
                        std::to_string(offset_) + " while reading " +
                        what);
        }
        offset_ += size;
        remaining_ -= size;
    }

    /** Memory-mode only: consume @p size bytes without copying. */
    const unsigned char*
    take(std::uint64_t size, const char* what)
    {
        require(size, what);
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
    void
    require(std::uint64_t size, const char* what)
    {
        fatalIf(size > remaining_, ErrorCode::CorruptInput,
                std::string("truncated trace stream: need ") +
                    std::to_string(size) + " byte(s) of " + what +
                    " at offset " + std::to_string(offset_) +
                    ", only " + std::to_string(remaining_) +
                    " remain");
    }

    std::istream* is_ = nullptr;
    const unsigned char* mem_ = nullptr;
    std::uint64_t offset_ = 0;
    std::uint64_t remaining_;
};

/** Decoded v3 header. */
struct V3Header
{
    std::string name;
    std::uint64_t instructions = 0;
    std::uint64_t recordCount = 0;
    std::uint32_t chunkCapacity = 0;
    std::uint64_t payloadStart = 0;
};

/**
 * Parse and CRC-validate a v3 header from @p in (positioned at the
 * magic). Throws CorruptInput on any malformed field, and on any
 * version but 3.
 */
V3Header
parseV3Header(ByteCursor& in)
{
    char magic[4] = {};
    in.read(magic, sizeof(magic), "magic");
    fatalIf(std::memcmp(magic, kMagic, sizeof(kMagic)) != 0,
            ErrorCode::CorruptInput, "not a trace stream (bad magic)");
    const auto version = in.get<std::uint32_t>("version");
    fatalIf(version != 3, ErrorCode::CorruptInput,
            "unsupported trace format version " +
                std::to_string(version) +
                ": only v3 (chunked) files are read; convert a v1/v2 "
                "file with 'mrp_sim_cli --trace OLD --dump NEW' using "
                "an earlier build that still reads it");

    V3Header h;
    h.instructions = in.get<std::uint64_t>("instruction count");
    h.recordCount = in.get<std::uint64_t>("record count");
    const auto name_len = in.get<std::uint32_t>("name length");
    h.chunkCapacity = in.get<std::uint32_t>("chunk capacity");
    fatalIf(name_len > kMaxNameLen, ErrorCode::CorruptInput,
            "implausible trace name length " +
                std::to_string(name_len) + " (max " +
                std::to_string(kMaxNameLen) + ")");
    fatalIf(h.chunkCapacity == 0 || h.chunkCapacity > kMaxChunkRecords,
            ErrorCode::CorruptInput,
            "implausible chunk capacity " +
                std::to_string(h.chunkCapacity) + " (max " +
                std::to_string(kMaxChunkRecords) + ")");

    Crc32 crc;
    crc.update(magic, sizeof(magic));
    crc.update(&version, sizeof(version));
    crc.update(&h.instructions, sizeof(h.instructions));
    crc.update(&h.recordCount, sizeof(h.recordCount));
    crc.update(&name_len, sizeof(name_len));
    crc.update(&h.chunkCapacity, sizeof(h.chunkCapacity));

    h.name.resize(name_len);
    if (name_len > 0)
        in.read(h.name.data(), name_len, "name");
    crc.update(h.name.data(), h.name.size());

    char pad[16] = {};
    const std::uint64_t pad_len = v3NamePad(name_len);
    if (pad_len > 0)
        in.read(pad, pad_len, "header padding");
    crc.update(pad, pad_len);

    const auto stored = in.get<std::uint32_t>("header CRC");
    fatalIf(stored != crc.value(), ErrorCode::CorruptInput,
            "trace header CRC mismatch: stored " + hex32(stored) +
                ", computed " + hex32(crc.value()));
    h.payloadStart = v3PayloadStart(name_len);
    return h;
}

/** Serialized v3 header (fixed fields, name, pad, CRC). */
std::string
v3HeaderBytes(const std::string& name, std::uint64_t instructions,
              std::uint64_t record_count, std::uint32_t chunk_capacity)
{
    fatalIf(name.size() > kMaxNameLen, ErrorCode::Config,
            "trace name too long for serialization: " +
                std::to_string(name.size()) + " bytes");
    std::string buf;
    buf.reserve(v3PayloadStart(name.size()));
    buf.append(kMagic, sizeof(kMagic));
    put(buf, static_cast<std::uint32_t>(3));
    put(buf, instructions);
    put(buf, record_count);
    put(buf, static_cast<std::uint32_t>(name.size()));
    put(buf, chunk_capacity);
    buf.append(name.data(), name.size());
    buf.append(v3NamePad(name.size()), '\0');
    put(buf, Crc32::of(buf.data(), buf.size()));
    return buf;
}

/** Chunk CRC: covers the record count, the instruction count, and the
 * record bytes — everything in the chunk except the CRC field. */
std::uint32_t
chunkCrc(std::uint32_t count, std::uint64_t instructions,
         const Record* records)
{
    Crc32 crc;
    crc.update(&count, sizeof(count));
    crc.update(&instructions, sizeof(instructions));
    crc.update(records, count * sizeof(Record));
    return crc.value();
}

InstCount
sumCounts(const Record* records, std::size_t n)
{
    InstCount total = 0;
    for (std::size_t i = 0; i < n; ++i)
        total += records[i].count();
    return total;
}

/** Fields of one chunk header, plus where it sits in the file. */
struct ChunkHead
{
    std::uint32_t count = 0;
    std::uint32_t crc = 0;
    std::uint64_t instructions = 0;
    std::uint64_t fileOffset = 0; //!< of the chunk header itself
};

/**
 * Read one chunk header from @p in and validate its record count
 * against the chunk @p capacity, the @p records_left (at least one)
 * the file header still owes, and the bytes physically remaining.
 * @p base is the absolute file offset of the cursor's origin, so
 * diagnostics can name the real position.
 *
 * ChunkedTraceWriter fills every chunk to capacity and writes the one
 * short chunk last, so a count is valid only if it is exactly
 * min(capacity, records_left): a short chunk anywhere else means the
 * chunks were reordered. (Two full chunks swapped still read back;
 * catching that needs the chunk's position in its CRC, a format
 * change.)
 */
ChunkHead
readChunkHead(ByteCursor& in, std::uint32_t capacity,
              std::uint64_t records_left, std::uint64_t base)
{
    ChunkHead c;
    c.fileOffset = base + in.offset();
    c.count = in.get<std::uint32_t>("chunk record count");
    c.crc = in.get<std::uint32_t>("chunk CRC");
    c.instructions = in.get<std::uint64_t>("chunk instruction count");
    const std::uint64_t expected =
        std::min<std::uint64_t>(capacity, records_left);
    if (c.count != expected) [[unlikely]]
        fatal(ErrorCode::CorruptInput,
              "corrupt chunk at offset " + std::to_string(c.fileOffset) +
                  ": record count " + std::to_string(c.count) +
                  ", expected " + std::to_string(expected) +
                  " (chunk capacity " + std::to_string(capacity) + ", " +
                  std::to_string(records_left) +
                  " record(s) left; only the last chunk may be short)");
    fatalIf(c.count * sizeof(Record) > in.remaining(),
            ErrorCode::CorruptInput,
            "truncated trace stream: chunk at offset " +
                std::to_string(c.fileOffset) + " claims " +
                std::to_string(c.count) + " record(s) but only " +
                std::to_string(in.remaining()) + " byte(s) remain");
    return c;
}

/** CRC + instruction-sum validation of a fully-read chunk. */
void
validateChunkPayload(const ChunkHead& c, const Record* records)
{
    const std::uint32_t computed =
        chunkCrc(c.count, c.instructions, records);
    fatalIf(computed != c.crc, ErrorCode::CorruptInput,
            "chunk CRC mismatch at offset " +
                std::to_string(c.fileOffset) + ": stored " +
                hex32(c.crc) + ", computed " + hex32(computed));
    fatalIf(sumCounts(records, c.count) != c.instructions,
            ErrorCode::CorruptInput,
            "chunk at offset " + std::to_string(c.fileOffset) +
                ": instruction count does not match its records");
}

/** Reject a record count that cannot fit in the @p payload_avail bytes
 * after the header (chunk headers included) before anything is
 * allocated. */
void
validatePayloadFits(const V3Header& h, std::uint64_t payload_avail)
{
    fatalIf(h.recordCount > payload_avail / sizeof(Record),
            ErrorCode::CorruptInput,
            "truncated trace stream: header claims " +
                std::to_string(h.recordCount) +
                " records but only " +
                std::to_string(payload_avail) +
                " payload byte(s) remain after offset " +
                std::to_string(h.payloadStart));
    const std::uint64_t chunks =
        (h.recordCount + h.chunkCapacity - 1) / h.chunkCapacity;
    fatalIf(h.recordCount * sizeof(Record) +
                    chunks * kChunkHeaderBytes >
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
    if (mode_ == FileMode::Buffered)
        openBuffered();
    else
        openMapped();

    try {
        ByteCursor in = map_ != nullptr ? ByteCursor(map_, fileBytes_)
                                        : ByteCursor(*file_, fileBytes_);
        const V3Header h = parseV3Header(in);
        validatePayloadFits(h, in.remaining());
        name_ = h.name;
        instructions_ = h.instructions;
        recordCount_ = h.recordCount;
        chunkCapacity_ = h.chunkCapacity;
        payloadStart_ = h.payloadStart;
        offset_ = payloadStart_;
    } catch (...) {
        // A throwing constructor runs no destructor: unmap here.
        if (map_ != nullptr)
            ::munmap(const_cast<unsigned char*>(map_), fileBytes_);
        throw;
    }
}

FileTraceSource::~FileTraceSource()
{
    if (map_ != nullptr)
        ::munmap(const_cast<unsigned char*>(map_), fileBytes_);
}

void
FileTraceSource::openBuffered()
{
    file_ = std::make_unique<std::ifstream>(path_, std::ios::binary);
    fatalIf(!*file_, ErrorCode::Io,
            "cannot open for reading: " + path_);
    file_->seekg(0, std::ios::end);
    const auto end = file_->tellg();
    file_->seekg(0);
    fatalIf(!*file_ || end < std::istream::pos_type(0), ErrorCode::Io,
            "cannot determine size of " + path_);
    fileBytes_ = static_cast<std::uint64_t>(end);
}

void
FileTraceSource::openMapped()
{
    fault::checkIo("stream.mmap", "mapping " + path_);
    const int fd = ::open(path_.c_str(), O_RDONLY);
    fatalIf(fd < 0, ErrorCode::Io,
            "cannot open for reading: " + path_);
    struct ::stat st = {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        fatal(ErrorCode::Io, "cannot stat " + path_);
    }
    fileBytes_ = static_cast<std::uint64_t>(st.st_size);
    if (fileBytes_ == 0) {
        ::close(fd);
        fatal(ErrorCode::CorruptInput, "empty trace file: " + path_);
    }
    void* map = ::mmap(nullptr, fileBytes_, PROT_READ, MAP_PRIVATE, fd,
                       0);
    ::close(fd);
    fatalIf(map == MAP_FAILED, ErrorCode::Io,
            "mmap failed for " + path_);
    map_ = static_cast<const unsigned char*>(map);
    ::madvise(const_cast<unsigned char*>(map_), fileBytes_,
              MADV_SEQUENTIAL);
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
    fault::checkIo("stream.read",
                   "reading chunk at offset " +
                       std::to_string(offset_) + " of " + path_);

    const std::uint64_t avail = fileBytes_ - offset_;
    ByteCursor in = map_ != nullptr ? ByteCursor(map_ + offset_, avail)
                                    : ByteCursor(*file_, avail);
    const ChunkHead c = readChunkHead(in, chunkCapacity_,
                                      recordCount_ - recordsServed_,
                                      offset_);
    const std::uint64_t bytes = c.count * sizeof(Record);
    const Record* records = nullptr;
    if (map_ != nullptr) {
        // Drop the pages of already-served chunks so residency stays
        // at ~one chunk no matter how large the mapped file is; they
        // refault from the file cleanly after a reset().
        const auto page =
            static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
        const std::uint64_t drop_end = offset_ & ~(page - 1);
        if (drop_end > lastChunkStart_) {
            ::madvise(const_cast<unsigned char*>(map_) + lastChunkStart_,
                      drop_end - lastChunkStart_, MADV_DONTNEED);
            lastChunkStart_ = drop_end;
        }
        records = reinterpret_cast<const Record*>(
            in.take(bytes, "chunk records"));
    } else {
        try {
            fault::checkAlloc("stream.read.alloc");
            buffer_.resize(c.count);
        } catch (const std::bad_alloc&) {
            fatal(ErrorCode::Resource,
                  "out of memory streaming trace chunk (" +
                      std::to_string(c.count) + " records)");
        }
        in.read(buffer_.data(), bytes, "chunk records");
        records = buffer_.data();
    }
    validateChunkPayload(c, records);

    offset_ += in.offset();
    recordsServed_ += c.count;
    instsServed_ += c.instructions;
    stats_.chunksDecoded += 1;
    stats_.bytesRead += in.offset();
    return {records, c.count};
}

void
FileTraceSource::reset()
{
    offset_ = payloadStart_;
    recordsServed_ = 0;
    instsServed_ = 0;
    lastChunkStart_ = 0;
    if (file_) {
        file_->clear();
        file_->seekg(static_cast<std::streamoff>(payloadStart_));
        fatalIf(!*file_, ErrorCode::Io,
                "seek failed rewinding " + path_);
    }
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
                                       std::string trace_name,
                                       std::size_t chunk_records)
    : path_(std::move(path)),
      tmpPath_(path_ + ".tmp." + std::to_string(::getpid())),
      name_(std::move(trace_name)),
      chunkRecords_(std::clamp(chunk_records, std::size_t{1},
                               std::size_t{kMaxChunkRecords}))
{
    // Placeholder header; finish() rewrites it with the real totals.
    // Built before the tmp file exists, because it rejects an over-long
    // name and a throwing constructor runs no destructor to clean up.
    const std::string header = v3HeaderBytes(
        name_, 0, 0, static_cast<std::uint32_t>(chunkRecords_));
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
    fatalIf(finished_, ErrorCode::Internal,
            "append() after finish() on " + path_);
    // Top up a partial chunk first; full chunks then go straight from
    // the caller's records, and only a short tail is buffered.
    if (!pending_.empty()) {
        const auto head = records.first(
            std::min(records.size(), chunkRecords_ - pending_.size()));
        pending_.insert(pending_.end(), head.begin(), head.end());
        records = records.subspan(head.size());
        if (pending_.size() < chunkRecords_)
            return;
        writeChunk(pending_.data(), chunkRecords_);
        pending_.clear();
    }
    while (records.size() >= chunkRecords_) {
        writeChunk(records.data(), chunkRecords_);
        records = records.subspan(chunkRecords_);
    }
    pending_.assign(records.begin(), records.end());
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
ChunkedTraceWriter::writeChunk(const Record* records, std::size_t n)
{
    fault::checkIo("stream.write",
                   "appending a chunk to " + tmpPath_);
    const auto count = static_cast<std::uint32_t>(n);
    const std::uint64_t insts = sumCounts(records, n);
    std::string head;
    head.reserve(kChunkHeaderBytes);
    put(head, count);
    put(head, chunkCrc(count, insts, records));
    put(head, insts);
    fault::checkCorrupt("stream.write.corrupt", head.data(),
                        head.size());
    const bool ok =
        std::fwrite(head.data(), 1, head.size(), file_) ==
            head.size() &&
        std::fwrite(records, sizeof(Record), n, file_) == n;
    fatalIf(!ok, ErrorCode::Io,
            "failed writing chunk to " + tmpPath_);
    instructions_ += insts;
    recordCount_ += n;
}

void
ChunkedTraceWriter::finish()
{
    fatalIf(finished_, ErrorCode::Internal,
            "finish() called twice on " + path_);
    if (!pending_.empty()) {
        writeChunk(pending_.data(), pending_.size());
        pending_.clear();
    }
    fault::checkIo("stream.write.finish", "finalizing " + path_);

    // Patch the header with the real totals, then fsync before the
    // rename so a crash can never publish a torn file at path_.
    const std::string header = v3HeaderBytes(
        name_, static_cast<std::uint64_t>(instructions_), recordCount_,
        static_cast<std::uint32_t>(chunkRecords_));
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

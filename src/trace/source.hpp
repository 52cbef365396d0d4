/**
 * @file
 * The streaming trace substrate: a pull-based chunk iterator that
 * every trace producer implements, so consumers (drivers, benches,
 * sweep rungs) never require a whole trace in memory again.
 *
 * Contract (see DESIGN.md "The TraceSource contract"):
 *
 *  - nextChunk() returns the next run of records; an empty span means
 *    the stream is exhausted. Chunk granularity is an implementation
 *    choice — consumers must behave identically for any chunking of
 *    the same record sequence.
 *  - The returned span is valid only until the next call to
 *    nextChunk(), reset(), or the source's destruction. Consumers
 *    that need a record across a chunk boundary copy it (a Record is
 *    16 bytes by value).
 *  - reset() rewinds to the beginning; the subsequent chunk stream
 *    replays the identical record sequence (looped replay and
 *    two-pass offline policies depend on this).
 *  - instructions() is the total instruction count of the whole
 *    stream, known up front (headers carry it, generators target it
 *    exactly); drivers size warmup windows from it before pulling a
 *    single chunk.
 *  - Sources are single-consumer and not thread-safe; parallelism
 *    happens across runs, each with its own source instance.
 *
 * Determinism: a trace consumed through any TraceSource — fully
 * materialized, streamed cold from a file, or streamed with
 * decode-ahead — yields the same record sequence and therefore
 * byte-identical simulation reports.
 */

#ifndef MRP_TRACE_SOURCE_HPP
#define MRP_TRACE_SOURCE_HPP

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace.hpp"
#include "util/types.hpp"

namespace mrp::trace {

/** Default records per chunk (64Ki records = 1 MiB of trace). */
inline constexpr std::size_t kDefaultChunkRecords = 1u << 16;

/** Pull-based chunk iterator over one trace. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Benchmark name carried by the stream. */
    virtual const std::string& name() const = 0;

    /** Total instructions in the whole stream (known up front). */
    virtual InstCount instructions() const = 0;

    /**
     * The next run of records; empty at end of stream. The span is
     * invalidated by the next nextChunk()/reset() call.
     */
    virtual std::span<const Record> nextChunk() = 0;

    /** Rewind; the stream replays identically from the start. */
    virtual void reset() = 0;
};

/**
 * An in-memory trace served through the streaming interface — the
 * adapter that keeps Trace-by-value producers (the synthetic simpoint
 * generators, tests) inside the one-API world. Borrows by default;
 * can own the trace when the caller has nothing to keep it alive.
 * Chunks are decoded from the trace's compact store into a small
 * owned buffer of at most kDecodeRecords records.
 */
class MaterializedTraceSource final : public TraceSource
{
  public:
    /**
     * Records decoded per chunk, whatever larger size is asked for.
     * Decoding 65536 at a time cost the same per record and 256 cost
     * more (EXPERIMENTS.md "Memory"), so the buffer stays at 32 KB.
     */
    static constexpr std::size_t kDecodeRecords = 2048;

    /** Borrow @p trace; the caller keeps it alive. */
    explicit MaterializedTraceSource(
        const Trace& trace, std::size_t chunk_records = kDefaultChunkRecords)
        : trace_(&trace), buffer_(normalize(chunk_records))
    {
    }

    /** Take ownership of @p trace. */
    explicit MaterializedTraceSource(
        Trace&& trace, std::size_t chunk_records = kDefaultChunkRecords)
        : owned_(std::make_unique<Trace>(std::move(trace))),
          trace_(owned_.get()), buffer_(normalize(chunk_records))
    {
    }

    const std::string& name() const override { return trace_->name(); }
    InstCount instructions() const override
    {
        return trace_->instructions();
    }

    std::span<const Record>
    nextChunk() override
    {
        const auto recs = trace_->records();
        if (pos_ >= recs.size())
            return {};
        const std::span<Record> out(
            buffer_.data(), std::min(buffer_.size(), recs.size() - pos_));
        recs.decode(pos_, out);
        pos_ += out.size();
        return out;
    }

    void reset() override { pos_ = 0; }

    /** The underlying trace (offline passes that must see it whole). */
    const Trace& trace() const { return *trace_; }

  private:
    static std::size_t
    normalize(std::size_t n)
    {
        return n == 0 ? kDecodeRecords : std::min(n, kDecodeRecords);
    }

    std::unique_ptr<Trace> owned_; //!< set iff owning
    const Trace* trace_;
    std::vector<Record> buffer_;
    std::size_t pos_ = 0;
};

/**
 * Drain @p source into an in-memory Trace.
 *
 * MEMORY COST: this buffers the whole stream — 8 bytes per record,
 * plus each 4096-record block's table of distinct PCs (layout in
 * trace/trace.hpp) — defeating the point of streaming. It exists for
 * offline passes that genuinely need random access to the full
 * reference sequence (Belady-style oracles, Hawkeye-style OPTgen
 * training) and for tests; everything else should consume chunks.
 * Throws CorruptInput if the records' counts do not sum to
 * source.instructions(). The source is left exhausted; reset() it to
 * reuse.
 */
Trace materialize(TraceSource& source);

} // namespace mrp::trace

#endif // MRP_TRACE_SOURCE_HPP

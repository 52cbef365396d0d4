/**
 * @file
 * TraceSpec: the one value type that names a trace — a suite or
 * held-out workload, a trace file, a streaming generator family, or a
 * borrowed in-memory Trace — and opens it as a TraceSource on demand.
 *
 * This collapses the historical three entry points (Trace by value,
 * workloads::* factories, mix::Mix index sets) into a single factory
 * used by drivers, RunRequest, and the sweep CorpusEvaluator. A spec
 * is cheap to copy and thread-agnostic; every open() call yields a
 * fresh, independent source, so concurrent runs each stream their own
 * cursor over the same spec.
 *
 * Identity: displayName() (the benchmark name carried by the opened
 * source) and instructions() are properties of the spec itself, known
 * without materializing anything — checkpoint/resume journals and
 * report rows key on them, so run identity never depends on HOW a
 * trace is delivered (materialized, streamed cold, decode-ahead).
 */

#ifndef MRP_TRACE_SPEC_HPP
#define MRP_TRACE_SPEC_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/source.hpp"
#include "trace/stream_gen.hpp"
#include "trace/stream_reader.hpp"
#include "util/json_reader.hpp"

namespace mrp::trace {

class TraceSpec
{
  public:
    enum class Kind {
        Borrowed, //!< non-owning pointer to a caller-held Trace
        Suite,    //!< workloads::makeSuiteTrace(index, instructions)
        HeldOut,  //!< workloads::makeHeldOutTrace(index, instructions)
        File,     //!< v4 trace file, streamed
        Zipf,     //!< streaming Zipf key-popularity family
        BlockIo,  //!< streaming block-I/O / storage-cache family
        PhaseMix, //!< phase-shifting combinator over child specs
        Sampled,  //!< SHARDS-sampled decorator over one child spec
    };

    /** Delivery knobs — affect how bytes arrive, never what they are
     * (run identity and report bytes are invariant under all of
     * them). */
    struct OpenOptions
    {
        FileMode fileMode = FileMode::Buffered; //!< File kind only
        bool decodeAhead = false; //!< wrap in a DecodeAheadSource
        std::size_t chunkRecords = 0; //!< 0 = kDefaultChunkRecords
        std::size_t queueDepth = 2;   //!< decode-ahead buffers
    };

    /** Borrow @p t; the caller keeps it alive for the spec's life. */
    static TraceSpec borrowed(const Trace& t);
    /** @p seed re-salts the generator (0 = the canonical instance). */
    static TraceSpec suite(unsigned index, InstCount instructions,
                           std::uint64_t seed = 0);
    static TraceSpec heldOut(unsigned index, InstCount instructions,
                             std::uint64_t seed = 0);
    /** Peeks the file header for the name/instruction identity;
     * throws FatalError if @p path is unreadable or malformed. */
    static TraceSpec file(std::string path);
    static TraceSpec zipf(ZipfParams p);
    static TraceSpec blockIo(BlockIoParams p);
    static TraceSpec phaseMix(std::string name, InstCount instructions,
                              InstCount phase_insts,
                              std::vector<TraceSpec> children);
    /**
     * SHARDS-sampled view of @p child at rate 2^-rate_log2: memory
     * records whose block fails the hash threshold are rewritten to
     * one-instruction non-memory records (instructions() stays equal
     * to the child's), so the sampled stream drives a hierarchy scaled
     * by the same rate — the sweep's cheap rung. rate_log2 must be in
     * [1, 24); the child must be self-contained (not Borrowed).
     */
    static TraceSpec sampled(TraceSpec child, unsigned rate_log2);

    Kind kind() const { return kind_; }

    /** Benchmark name — equals the opened source's name(). */
    const std::string& displayName() const { return name_; }

    /** Total instructions of the stream, known without opening. Exact
     * for File/Borrowed specs and the streaming families; the legacy
     * Suite/HeldOut generators land within one loop iteration of this
     * target (they finish the iteration in flight). */
    InstCount instructions() const { return instructions_; }

    /** A spec identical except for the instruction target — how sweep
     * budget rungs derive shorter runs (generators regenerate at the
     * new length; prefix cuts would not reproduce generator output).
     * File and Borrowed specs cannot be resized and throw. */
    TraceSpec withInstructions(InstCount instructions) const;

    /** Open a fresh, independent source for this spec. */
    std::unique_ptr<TraceSource> open() const { return open({}); }
    std::unique_ptr<TraceSource> open(const OpenOptions& opts) const;

    /**
     * Self-contained JSON form of this spec, the trace identity inside
     * runner::requestJson: every generator parameter that affects the
     * record sequence is included, so fromJson() on any machine opens
     * a bit-identical stream. Borrowed specs point into this
     * process's memory and have no such form — they throw
     * FatalError(ErrorCode::Config).
     */
    std::string toJson() const;

    /** Rebuild a spec from toJson() output. @p what names the
     * document for error messages. Throws
     * FatalError(ErrorCode::CorruptInput) on schema violations and
     * whatever the named factory throws (e.g. Io for a missing trace
     * file). */
    static TraceSpec fromJson(const json::Value& v,
                              const std::string& what);

  private:
    TraceSpec() = default;

    Kind kind_ = Kind::Borrowed;
    std::string name_;
    InstCount instructions_ = 0;

    const Trace* borrowedTrace_ = nullptr;
    unsigned index_ = 0;          //!< Suite / HeldOut
    std::uint64_t seed_ = 0;      //!< Suite / HeldOut generator salt
    std::string path_;            //!< File
    ZipfParams zipf_;        //!< Zipf
    BlockIoParams blockIo_;  //!< BlockIo
    InstCount phaseInsts_ = 0;          //!< PhaseMix
    std::vector<TraceSpec> children_;   //!< PhaseMix / Sampled (one)
    unsigned rateLog2_ = 0;             //!< Sampled
};

} // namespace mrp::trace

#endif // MRP_TRACE_SPEC_HPP

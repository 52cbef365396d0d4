/**
 * @file
 * Streaming workload families: generators that synthesize chunks on
 * demand instead of materializing a Trace, so corpora can be orders
 * of magnitude longer than RAM.
 *
 * All families derive from ChunkSource, which owns the chunk buffer,
 * the deterministic RNG, and the exact instruction budget: a source
 * built for N instructions emits exactly N (pads are clamped to the
 * remaining budget), so instructions() is exact up front, warmup
 * windows derived from it are exact, and a written copy of the stream
 * passes the trace reader's totals validation. The record
 * sequence depends only on the family parameters — never on the chunk
 * size — so any chunking of the same source is equivalent.
 *
 * The families mirror the traffic the paper's predictor meets at
 * scale rather than simpoint loops: Zipf-distributed key popularity
 * (the millions-of-users skew of serving caches), a block-I/O /
 * storage-cache request mix, and a phase-shifting combinator that
 * switches between child sources at a fixed instruction period.
 */

#ifndef MRP_TRACE_STREAM_GEN_HPP
#define MRP_TRACE_STREAM_GEN_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/source.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace mrp::trace {

/**
 * Base class for generator-driven sources. Derived families implement
 * step() — one loop iteration of the modelled program, emitted via the
 * protected helpers — and keep all state in members so the sequence is
 * independent of where chunk boundaries fall.
 */
class ChunkSource : public TraceSource
{
  public:
    const std::string& name() const override { return name_; }
    InstCount instructions() const override { return target_; }
    std::span<const Record> nextChunk() override;
    void reset() override;

  protected:
    ChunkSource(std::string name, InstCount target, Pc code_base,
                std::uint64_t seed, std::size_t chunk_records);

    /**
     * Emit one iteration of the workload. Must emit at least one
     * instruction whenever budget remains (emitMem on a fresh budget
     * always succeeds), or the stream cannot make progress.
     */
    virtual void step() = 0;

    /** Re-seed family state after the RNG has been rewound. */
    virtual void onReset() {}

    /** PC of code site @p idx (stable across chunks and resets). */
    Pc site(unsigned idx) const { return codeBase_ + 4 * idx; }

    InstCount remainingInsts() const { return target_ - emitted_; }

    /** Append a memory op; false iff the budget is exhausted. */
    bool emitMem(unsigned site_idx, Op op, Addr a, bool dep = false);

    /** Append up to @p count non-memory instructions (clamped). */
    void emitPad(std::uint64_t count);

    Rng& rng() { return rng_; }

  private:
    static constexpr unsigned kPadSite = 255;

    std::string name_;
    InstCount target_;
    Pc codeBase_;
    std::uint64_t seed_;
    std::size_t chunkRecords_;
    Rng rng_;
    std::vector<Record> buffer_;
    InstCount emitted_ = 0;
};

/**
 * Zipfian sampler over ranks [0, n): rank r is drawn with probability
 * proportional to 1/(r+1)^theta (Gray et al.'s bounded generator, the
 * YCSB formulation). Construction is O(n) to precompute the harmonic
 * normalizer; sampling is O(1).
 */
class ZipfDistribution
{
  public:
    ZipfDistribution(std::uint64_t n, double theta);

    /** Rank in [0, n); rank 0 is the most popular. */
    std::uint64_t sample(Rng& rng) const;

    /** Probability mass of the @p top most popular ranks. */
    double topShare(std::uint64_t top) const;

  private:
    std::uint64_t n_;
    double theta_;
    double alpha_;
    double zetan_;
    double eta_;
    double halfPowTheta_;
};

/** Zipf-popularity key-value traffic. */
struct ZipfParams
{
    std::string name = "zipf";
    InstCount instructions = 0;
    std::uint64_t seed = 1;
    Addr dataBase = 0;
    Pc codeBase = 0;
    std::uint64_t keys = 1u << 20;   //!< distinct cache-line keys
    double theta = 0.99;             //!< skew (0 = uniform)
    double storeProb = 0.05;         //!< fraction of writes
    unsigned padsPerAccess = 6;      //!< non-memory work per access
    std::size_t chunkRecords = kDefaultChunkRecords;
};

/**
 * Key-value store under Zipf popularity: every access picks a key by
 * Zipf rank and touches its cache line; popular keys are scattered
 * across the region by a multiplicative permutation so popularity and
 * address adjacency are uncorrelated. The head of the distribution is
 * cache-resident, the long tail is effectively streaming — live and
 * dead blocks share PCs, so reuse must be learned from address and
 * recency signals.
 */
std::unique_ptr<TraceSource> makeZipfSource(const ZipfParams& p);

/** Block-I/O / storage-cache request traffic. */
struct BlockIoParams
{
    std::string name = "blkio";
    InstCount instructions = 0;
    std::uint64_t seed = 1;
    Addr dataBase = 0;
    Pc codeBase = 0;
    Addr volumeBytes = Addr{1} << 32; //!< addressable volume
    double hotFraction = 0.02;        //!< hot-spot share of the volume
    double seqProb = 0.45;            //!< sequential-run requests
    double hotProb = 0.35;            //!< hot-spot requests
    double writeProb = 0.30;          //!< write requests
    unsigned maxRunBlocks = 64;       //!< longest sequential run
    unsigned padsPerRequest = 24;     //!< think time between requests
    std::size_t chunkRecords = kDefaultChunkRecords;
};

/**
 * Storage-cache traffic: a mix of long sequential scans (dead on
 * arrival), a small hot spot (reused), and uniform random requests,
 * with reads and writes issued from distinct PCs per request class.
 * Sequential runs defeat recency; the hot spot rewards protection —
 * the canonical scan-vs-point-access tension of block caches.
 */
std::unique_ptr<TraceSource> makeBlockIoSource(const BlockIoParams& p);

/**
 * Phase-shifting combinator: serves @p phase_insts instructions from
 * each child in round-robin order (children loop via reset() when
 * exhausted) until @p instructions have been emitted in total.
 * Switches happen at record granularity, so the stream exercises the
 * global-phase signals the paper's bias feature tracks. Children must
 * be non-empty sources; the combinator takes ownership.
 */
std::unique_ptr<TraceSource>
makePhaseMix(std::string name, InstCount instructions,
             InstCount phase_insts,
             std::vector<std::unique_ptr<TraceSource>> children,
             std::size_t chunk_records = kDefaultChunkRecords);

} // namespace mrp::trace

#endif // MRP_TRACE_STREAM_GEN_HPP

/**
 * @file
 * SHARDS spatial sampling as a TraceSource decorator.
 *
 * A SampledTraceSource keeps exactly the memory records whose block
 * address passes the SHARDS hash threshold at rate 2^-rateLog2 and
 * rewrites every dropped memory record to a one-instruction
 * non-memory record. Two consequences make this the right shape for
 * sweep budget rungs:
 *
 *  - instructions() is EXACTLY the child's count (each record keeps
 *    its instruction weight), so warmup windows, MPKI denominators,
 *    and run identity stay well-defined without materializing
 *    anything.
 *  - Sampling is a pure per-record function of the child's record
 *    sequence, so the stream is deterministic under any chunking or
 *    delivery mode, and the spec serializes (TraceSpec::toJson).
 *
 * A workload spatially sampled at rate R behaves on a cache hierarchy
 * scaled by R like the full workload on the full hierarchy (the
 * SHARDS observation), with demand misses scaled by ~R — which is how
 * mrc::SampledRungObjective turns one cheap run into a full-fidelity
 * ranking signal.
 */

#ifndef MRP_TRACE_SAMPLED_SOURCE_HPP
#define MRP_TRACE_SAMPLED_SOURCE_HPP

#include <memory>
#include <vector>

#include "trace/source.hpp"
#include "util/hash.hpp"

namespace mrp::trace {

/** Name suffix marker: "<child>~s<rateLog2>". */
inline constexpr const char* kSampledNameMarker = "~s";

class SampledTraceSource final : public TraceSource
{
  public:
    SampledTraceSource(std::unique_ptr<TraceSource> child,
                       unsigned rate_log2);

    const std::string& name() const override { return name_; }
    InstCount instructions() const override
    {
        return child_->instructions();
    }
    std::span<const Record> nextChunk() override;
    void reset() override { child_->reset(); }

  private:
    std::unique_ptr<TraceSource> child_;
    unsigned rateLog2_;
    std::string name_;
    std::vector<Record> buf_;
};

} // namespace mrp::trace

#endif // MRP_TRACE_SAMPLED_SOURCE_HPP

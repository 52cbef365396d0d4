/**
 * @file
 * Incremental construction of synthetic traces.
 */

#ifndef MRP_TRACE_BUILDER_HPP
#define MRP_TRACE_BUILDER_HPP

#include <string>
#include <utility>

#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace mrp::trace {

/**
 * Builds a Trace record by record, straight into its compact store.
 * The builder owns a deterministic RNG and a PC-site allocator:
 * generators refer to static "code sites" by small indices, which map
 * to stable, 4-byte-aligned PCs so that PC-correlated reuse behaviour
 * exists for predictors to learn.
 */
class TraceBuilder
{
  public:
    /**
     * @param name benchmark name carried by the resulting trace
     * @param code_base base PC of this benchmark's code region
     * @param seed RNG seed (every generated trace is deterministic)
     */
    TraceBuilder(std::string name, Pc code_base, std::uint64_t seed)
        : name_(std::move(name)), codeBase_(code_base), rng_(seed)
    {
    }

    /** PC of code site @p idx. */
    Pc site(unsigned idx) const { return codeBase_ + 4 * idx; }

    /** Append a load from @p site_idx to address @p a. */
    void
    load(unsigned site_idx, Addr a, bool dep = false)
    {
        enc_.append(Record::memOp(site(site_idx), Op::Load, a, dep));
    }

    /** Append a store from @p site_idx to address @p a. */
    void
    store(unsigned site_idx, Addr a, bool dep = false)
    {
        enc_.append(Record::memOp(site(site_idx), Op::Store, a, dep));
    }

    /** Append @p count non-memory instructions (compressed). */
    void
    pad(std::uint32_t count)
    {
        if (count == 0)
            return;
        enc_.append(Record::nonMem(site(kPadSite), count));
    }

    /** Instructions emitted so far. */
    InstCount instructions() const { return enc_.instructions(); }

    /** Deterministic per-trace RNG for generators. */
    Rng& rng() { return rng_; }

    /** Finalize; the builder must not be used afterwards. */
    Trace
    build() &&
    {
        const InstCount insts = enc_.instructions();
        return std::move(enc_).finish(std::move(name_), insts);
    }

  private:
    static constexpr unsigned kPadSite = 255;

    std::string name_;
    Pc codeBase_;
    Rng rng_;
    Trace::Encoder enc_;
};

} // namespace mrp::trace

#endif // MRP_TRACE_BUILDER_HPP

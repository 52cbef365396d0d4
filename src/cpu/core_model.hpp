/**
 * @file
 * Out-of-order core timing model.
 *
 * Approximates the paper's 4-wide, 8-stage, 128-entry-window core: an
 * instruction enters the window when fetch bandwidth allows and the
 * instruction 128 positions earlier has retired; loads complete after
 * their memory latency (overlapping freely unless data-dependent);
 * retirement is in order at 4 per cycle. This reproduces the property
 * that converts MPKI into speedup: independent misses overlap up to
 * the window limit, dependent misses serialize.
 *
 * The model is also the multi-core interleaving engine: cores expose
 * the cycle at which their next instruction enters the window, and the
 * driver steps whichever core is earliest, producing a deterministic,
 * timing-ordered interleaving of LLC accesses.
 */

#ifndef MRP_CPU_CORE_MODEL_HPP
#define MRP_CPU_CORE_MODEL_HPP

#include <memory>
#include <span>
#include <vector>

#include "cache/hierarchy.hpp"
#include "trace/source.hpp"
#include "trace/trace.hpp"
#include "util/types.hpp"

namespace mrp::cpu {

/** Core width/window parameters (defaults follow the paper §4.1). */
struct CoreModelConfig
{
    unsigned fetchWidth = 4;
    unsigned retireWidth = 4;
    unsigned windowSize = 128;
    /**
     * Maximum concurrently outstanding long-latency (DRAM) misses; a
     * load whose latency reaches dramThreshold occupies an MSHR. This
     * bounds memory-level parallelism the way real miss buffers do.
     */
    unsigned mshrs = 16;
    Cycle dramThreshold = 200;
};

/** One core executing one trace against a shared hierarchy. */
class CoreModel
{
  public:
    /**
     * Execute @p source, pulling records chunk by chunk — the core
     * never needs the whole trace in memory. The source must outlive
     * the model and is consumed exclusively by it (reset on looping).
     *
     * @param loop restart the trace at its end (FIESTA-style region
     *        replay); when false, finished() becomes true at the end
     */
    CoreModel(CoreId core, cache::Hierarchy& hierarchy,
              trace::TraceSource& source, bool loop,
              const CoreModelConfig& cfg = CoreModelConfig{});

    /** True when a non-looping trace is exhausted. */
    bool finished() const { return exhausted_; }

    /**
     * Cycle at which the next instruction would enter the window
     * (the multi-core driver steps the earliest core first).
     */
    Cycle nextEnterCycle() const;

    /** Process the next trace record (all instructions it covers). */
    void step();

    /**
     * Process records until at least @p until instructions have
     * retired or a non-looping trace is exhausted: the same as
     * `while (!finished() && retired() < until) step();`, with the
     * record loop kept inside the core.
     */
    void run(InstCount until);

    /** Instructions retired so far. */
    InstCount retired() const { return retired_; }

    /** Retire-time of the newest retired instruction. */
    Cycle cycle() const { return lastRetire_; }

    /** The predictor-visible per-core context. */
    cache::CoreContext& context() { return ctx_; }

    /** Total load latency accumulated (for average-latency reporting). */
    Cycle loadLatencyTotal() const { return loadLatencyTotal_; }
    InstCount loadCount() const { return loadCount_; }

  private:
    /** The one body of step() and run(): process the next record of
     * an unfinished core. */
    [[gnu::always_inline]] inline void stepRecord();

    /** Advance one instruction with completion time = enter + lat. */
    void retireOne(Cycle enter, Cycle completion);

    /** Enter cycle for the next instruction, without mutating state. */
    Cycle peekEnter() const;

    /** Consume fetch bandwidth and return the actual enter cycle. */
    Cycle takeEnterSlot();

    /** Pull the next chunk (looping or exhausting at end of stream);
     * called eagerly so finished() stays accurate between steps. */
    void advanceChunk();

    CoreId core_;
    cache::Hierarchy& hier_;
    trace::TraceSource* source_;
    bool loop_;
    CoreModelConfig cfg_;

    std::span<const trace::Record> chunk_;
    std::size_t chunkIdx_ = 0;
    bool exhausted_ = false;
    cache::CoreContext ctx_;

    std::vector<Cycle> retireRing_; //!< retire times of last W instrs
    std::size_t ringIdx_ = 0;       //!< == retired_ % retireRing_.size()
    InstCount retired_ = 0;

    Cycle lastEnter_ = 0;
    unsigned entersThisCycle_ = 0;
    Cycle lastRetire_ = 0;
    unsigned retiresThisCycle_ = 0;
    Cycle lastLoadCompletion_ = 0;
    std::vector<Cycle> mshrRing_; //!< completion times of DRAM misses
    std::size_t mshrIdx_ = 0;     //!< next MSHR slot, round-robin

    Cycle loadLatencyTotal_ = 0;
    InstCount loadCount_ = 0;
};

} // namespace mrp::cpu

#endif // MRP_CPU_CORE_MODEL_HPP

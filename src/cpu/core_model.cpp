#include "cpu/core_model.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace mrp::cpu {

CoreModel::CoreModel(CoreId core, cache::Hierarchy& hierarchy,
                     trace::TraceSource& source, bool loop,
                     const CoreModelConfig& cfg)
    : core_(core), hier_(hierarchy), source_(&source), loop_(loop),
      cfg_(cfg), retireRing_(cfg.windowSize, 0), mshrRing_(cfg.mshrs, 0)
{
    fatalIf(cfg.mshrs == 0, "need at least one MSHR");
    fatalIf(cfg.windowSize == 0, "window size must be positive");
    fatalIf(cfg.fetchWidth == 0 || cfg.retireWidth == 0,
            "core width must be positive");
    chunk_ = source_->nextChunk();
    fatalIf(chunk_.empty(), "cannot execute an empty trace");
}

void
CoreModel::advanceChunk()
{
    chunkIdx_ = 0;
    chunk_ = source_->nextChunk();
    if (!chunk_.empty())
        return;
    if (!loop_) {
        exhausted_ = true;
        return;
    }
    source_->reset();
    chunk_ = source_->nextChunk();
    panicIf(chunk_.empty(),
            "trace source became empty on looped replay");
}

Cycle
CoreModel::peekEnter() const
{
    // Window constraint: instruction i waits for instruction i-W to
    // retire. The ring holds the retire time of exactly that slot;
    // ringIdx_ tracks retired_ % W incrementally because the modulo
    // (an integer divide, twice per instruction) dominated the
    // timing-model bookkeeping cost in profile runs.
    const Cycle window_free = retireRing_[ringIdx_];
    Cycle e = std::max(lastEnter_, window_free);
    if (e == lastEnter_ && entersThisCycle_ >= cfg_.fetchWidth)
        e += 1;
    return e;
}

Cycle
CoreModel::nextEnterCycle() const
{
    return peekEnter();
}

Cycle
CoreModel::takeEnterSlot()
{
    const Cycle e = peekEnter();
    if (e == lastEnter_) {
        ++entersThisCycle_;
    } else {
        lastEnter_ = e;
        entersThisCycle_ = 1;
    }
    return e;
}

void
CoreModel::retireOne(Cycle enter, Cycle completion)
{
    Cycle r = std::max(completion, lastRetire_);
    if (r == lastRetire_ && retiresThisCycle_ >= cfg_.retireWidth)
        r += 1;
    if (r == lastRetire_) {
        ++retiresThisCycle_;
    } else {
        lastRetire_ = r;
        retiresThisCycle_ = 1;
    }
    retireRing_[ringIdx_] = r;
    if (++ringIdx_ == retireRing_.size())
        ringIdx_ = 0;
    ++retired_;
    (void)enter;
}

inline void
CoreModel::stepRecord()
{
    // Copy by value before advancing: fetching the next chunk
    // invalidates the span this record lives in.
    const trace::Record rec = chunk_[chunkIdx_];
    if (++chunkIdx_ >= chunk_.size())
        advanceChunk();

    if (!rec.isMem()) {
        // A run of single-cycle instructions — the simulator's hottest
        // loop by instruction count. Same arithmetic as
        // takeEnterSlot()+retireOne(), but on locals: the per-
        // iteration ring store would otherwise force the compiler to
        // reload every member field each time around.
        Cycle last_enter = lastEnter_;
        unsigned enters = entersThisCycle_;
        Cycle last_retire = lastRetire_;
        unsigned retires = retiresThisCycle_;
        std::size_t ring_idx = ringIdx_;
        const std::size_t ring_size = retireRing_.size();
        Cycle* const ring = retireRing_.data();
        const unsigned fetch_w = cfg_.fetchWidth;
        const unsigned retire_w = cfg_.retireWidth;
        for (std::uint32_t k = 0; k < rec.count(); ++k) {
            Cycle e = std::max(last_enter, ring[ring_idx]);
            if (e == last_enter && enters >= fetch_w)
                e += 1;
            if (e == last_enter) {
                ++enters;
            } else {
                last_enter = e;
                enters = 1;
            }
            Cycle r = std::max(e + 1, last_retire);
            if (r == last_retire && retires >= retire_w)
                r += 1;
            if (r == last_retire) {
                ++retires;
            } else {
                last_retire = r;
                retires = 1;
            }
            ring[ring_idx] = r;
            if (++ring_idx == ring_size)
                ring_idx = 0;
        }
        lastEnter_ = last_enter;
        entersThisCycle_ = enters;
        lastRetire_ = last_retire;
        retiresThisCycle_ = retires;
        ringIdx_ = ring_idx;
        retired_ += rec.count();
        return;
    }

    // Everything from here to retirement is the cost of servicing one
    // memory access: enter-slot arbitration, the hierarchy walk (with
    // the policy work nested below it), and MSHR/retire accounting.
    const Cycle e = takeEnterSlot();
    const bool is_write = rec.op() == trace::Op::Store;
    const Cycle lat =
        hier_.access(core_, rec.pc(), rec.addr(), is_write, &ctx_);
    ctx_.notePc(rec.pc());

    Cycle completion;
    if (is_write) {
        // Stores drain through a write buffer and do not hold up
        // retirement; their cache effects are functional only.
        completion = e + 1;
    } else {
        Cycle issue = e;
        if (rec.dependsOnPrevLoad())
            issue = std::max(issue, lastLoadCompletion_);
        if (lat >= cfg_.dramThreshold) {
            // A DRAM miss needs a free MSHR: it cannot issue before
            // the (mshrs)-th previous DRAM miss has completed.
            issue = std::max(issue, mshrRing_[mshrIdx_]);
            mshrRing_[mshrIdx_] = issue + lat;
            if (++mshrIdx_ == mshrRing_.size())
                mshrIdx_ = 0;
        }
        completion = issue + lat;
        lastLoadCompletion_ = completion;
        loadLatencyTotal_ += lat;
        ++loadCount_;
    }
    retireOne(e, completion);
}

void
CoreModel::step()
{
    panicIf(finished(), "step() on a finished core");
    stepRecord();
}

void
CoreModel::run(InstCount until)
{
    while (!exhausted_ && retired_ < until)
        stepRecord();
}

} // namespace mrp::cpu

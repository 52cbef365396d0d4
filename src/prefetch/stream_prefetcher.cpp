#include "prefetch/stream_prefetcher.hpp"

#include <bit>
#include <string>

#include "prof/profiler.hpp"
#include "util/logging.hpp"

namespace mrp::prefetch {

StreamPrefetcher::StreamPrefetcher(const StreamPrefetcherConfig& cfg)
    : cfg_(cfg)
{
    // Checked before the table is sized from it.
    fatalIf(cfg.streams == 0 || cfg.streams > kMaxStreams,
            "prefetcher needs 1.." + std::to_string(kMaxStreams) +
                " streams, got " + std::to_string(cfg.streams));
    lastBlock_.assign(cfg.streams, 0);
    head_.assign(cfg.streams, 0);
    direction_.assign(cfg.streams, 0);
    lastUse_.assign(cfg.streams, 0);
}

void
StreamPrefetcher::reset()
{
    lastUse_.assign(lastUse_.size(), 0);
    useClock_ = 0;
    if (tracking_)
        enableTracking(); // restart the tracked period cleanly
}

void
StreamPrefetcher::enableTracking()
{
    tracking_ = true;
    filter_.assign(kFilterSlots, kNoBlock);
    issuedAtEnable_ = issued_;
    useful_ = 0;
    late_ = 0;
    demandMisses_ = 0;
}

void
StreamPrefetcher::observeDemandHit(Addr addr)
{
    if (!tracking_)
        return;
    const Addr blk = blockAddr(addr);
    Addr& slot = filter_[blk & (kFilterSlots - 1)];
    if (slot == blk) {
        ++useful_;
        slot = kNoBlock;
    }
}

double
StreamPrefetcher::accuracy() const
{
    const std::uint64_t n = trackedIssued();
    return n == 0 ? 0.0
                  : static_cast<double>(useful_) /
                        static_cast<double>(n);
}

double
StreamPrefetcher::coverage() const
{
    const std::uint64_t covered_plus_missed = useful_ + demandMisses_;
    return covered_plus_missed == 0
               ? 0.0
               : static_cast<double>(useful_) /
                     static_cast<double>(covered_plus_missed);
}

void
StreamPrefetcher::onL1Miss(Addr addr, std::vector<Addr>& out)
{
    MRP_PROF_SCOPE_HOT("prefetch.train");
    const Addr blk = blockAddr(addr);
    ++useClock_;

    if (tracking_) {
        ++demandMisses_;
        Addr& slot = filter_[blk & (kFilterSlots - 1)];
        if (slot == blk) {
            ++late_;
            slot = kNoBlock;
        }
    }

    // Try to match an existing stream within the window: the first live
    // slot in slot order whose last miss is 1..window blocks away.
    const std::size_t n = lastUse_.size();
    std::uint64_t matches = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Addr ref = lastBlock_[i];
        const Addr delta = blk > ref ? blk - ref : ref - blk;
        // delta - 1 < window  <=>  0 < delta <= window (unsigned wrap)
        const bool hit = (lastUse_[i] != 0) & (delta - 1 < cfg_.window);
        matches |= static_cast<std::uint64_t>(hit) << i;
    }

    if (matches == 0) {
        // Allocate a stream: the first free slot, else the LRU one.
        std::size_t lru = 0;
        for (std::size_t i = 1; i < n; ++i)
            if (lastUse_[i] < lastUse_[lru])
                lru = i;
        lastBlock_[lru] = blk;
        head_[lru] = blk;
        direction_[lru] = 0;
        lastUse_[lru] = useClock_;
        return;
    }

    const auto m = static_cast<std::size_t>(std::countr_zero(matches));
    lastUse_[m] = useClock_;
    if (direction_[m] == 0) {
        // Second miss decides the direction (paper: at most two misses).
        direction_[m] = blk > lastBlock_[m] ? +1 : -1;
        head_[m] = blk;
    }
    lastBlock_[m] = blk;

    // Keep the prefetch head ahead of the miss in the stream direction.
    const int dir = direction_[m];
    const auto ahead_of = [dir](Addr a, Addr b) {
        return dir > 0 ? a > b : a < b;
    };
    Addr head = head_[m];
    if (!ahead_of(head, blk))
        head = blk;

    const Addr limit = dir > 0 ? blk + cfg_.distance : blk - cfg_.distance;
    unsigned emitted = 0;
    while (emitted < cfg_.degree && ahead_of(limit, head)) {
        head = dir > 0 ? head + 1 : head - 1;
        out.push_back(head << kBlockShift);
        ++issued_;
        ++emitted;
        if (tracking_)
            filter_[head & (kFilterSlots - 1)] = head;
    }
    head_[m] = head;
}

} // namespace mrp::prefetch

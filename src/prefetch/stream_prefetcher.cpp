#include "prefetch/stream_prefetcher.hpp"

#include <bit>
#include <string>

#include "util/bitfield.hpp"
#include "util/logging.hpp"

namespace mrp::prefetch {

StreamPrefetcher::StreamPrefetcher(const StreamPrefetcherConfig& cfg)
    : cfg_(cfg), regionShift_(log2Ceil(cfg.window))
{
    // Checked before the table is sized from it.
    fatalIf(cfg.streams == 0 || cfg.streams > kMaxStreams,
            "prefetcher needs 1.." + std::to_string(kMaxStreams) +
                " streams, got " + std::to_string(cfg.streams));
    lastBlock_.assign(cfg.streams, 0);
    head_.assign(cfg.streams, 0);
    direction_.assign(cfg.streams, 0);
    reset();
}

void
StreamPrefetcher::reset()
{
    free_ = ~std::uint64_t{0} >> (kMaxStreams - cfg_.streams);
    mru_ = kNil;
    lru_ = kNil;
    buckets_.fill(0);
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
StreamPrefetcher::unlink(std::uint8_t s)
{
    const std::uint8_t p = prev_[s];
    const std::uint8_t n = next_[s];
    (p == kNil ? mru_ : next_[p]) = n;
    (n == kNil ? lru_ : prev_[n]) = p;
}

void
StreamPrefetcher::pushMru(std::uint8_t s)
{
    prev_[s] = kNil;
    next_[s] = mru_;
    (mru_ == kNil ? lru_ : prev_[mru_]) = s;
    mru_ = s;
}

void
StreamPrefetcher::onL1Miss(Addr addr, std::vector<Addr>& out)
{
    const Addr blk = blockAddr(addr);

    if (tracking_) {
        ++demandMisses_;
        Addr& slot = filter_[blk & (kFilterSlots - 1)];
        if (slot == blk) {
            ++late_;
            slot = kNoBlock;
        }
    }

    // Try to match an existing stream within the window: the first live
    // slot in slot order whose last miss is 1..window blocks away. Only
    // slots in the three regions around the miss can match; region r±1
    // hashes to h ± kHashMul (mod 2^64), so one multiply serves all three.
    const std::uint64_t h = (blk >> regionShift_) * kHashMul;
    const std::size_t here = h >> kBucketShift; // == bucketOf(blk)
    std::uint64_t candidates = buckets_[(h - kHashMul) >> kBucketShift] |
                               buckets_[here] |
                               buckets_[(h + kHashMul) >> kBucketShift];
    std::uint8_t m = kNil;
    for (; candidates != 0; candidates &= candidates - 1) {
        const auto i =
            static_cast<std::uint8_t>(std::countr_zero(candidates));
        const Addr ref = lastBlock_[i];
        const Addr delta = blk > ref ? blk - ref : ref - blk;
        // delta - 1 < window  <=>  0 < delta <= window (unsigned wrap)
        if (delta - 1 < cfg_.window) {
            m = i;
            break;
        }
    }

    if (m == kNil) {
        // Allocate a stream: the first free slot, else the LRU one.
        std::uint8_t s;
        if (free_ != 0) {
            s = static_cast<std::uint8_t>(std::countr_zero(free_));
            free_ &= free_ - 1;
        } else {
            s = lru_;
            unlink(s);
            buckets_[bucketOf(lastBlock_[s])] &= ~(std::uint64_t{1} << s);
        }
        pushMru(s);
        buckets_[here] |= std::uint64_t{1} << s;
        lastBlock_[s] = blk;
        head_[s] = blk;
        direction_[s] = 0;
        return;
    }

    if (m != mru_) {
        unlink(m);
        pushMru(m);
    }
    if (direction_[m] == 0) {
        // Second miss decides the direction (paper: at most two misses).
        direction_[m] = blk > lastBlock_[m] ? +1 : -1;
        head_[m] = blk;
    }
    buckets_[bucketOf(lastBlock_[m])] &= ~(std::uint64_t{1} << m);
    buckets_[here] |= std::uint64_t{1} << m;
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

#include "host_probe.hpp"

#include <algorithm>

#include "traced.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kSets = 2048;
constexpr std::size_t kWays = 16;
constexpr int kAccesses = 3000000;
/** Three in four accesses go to a hot set that fits the tag array; the
 * rest spread over 100x as many blocks and mostly miss. */
constexpr std::uint64_t kHotBlocks = 20000;
constexpr std::uint64_t kAllBlocks = 2000000;

std::uint64_t
xorshift(std::uint64_t& s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

} // namespace

HostProbe::HostProbe(unsigned jobs) : lanes_(std::max(1u, jobs)) {}

double
HostProbe::run()
{
    std::vector<double> secs(lanes_.size(), 0.0);
    parallelFor(lanes_.size(), static_cast<unsigned>(lanes_.size()),
                [&](std::size_t j, unsigned) {
        Lane& l = lanes_[j];
        // Same start state every time, so every run does the same work.
        l.tags.assign(kSets * kWays, 0);
        l.ages.assign(kSets * kWays, 0);
        std::uint64_t rng = 0x9E3779B97F4A7C15ull + j;
        std::uint64_t hits = 0;
        const auto t0 = Clock::now();
        for (int i = 0; i < kAccesses; ++i) {
            const std::uint64_t r = xorshift(rng);
            const std::uint64_t blk =
                (r & 3) ? (r >> 8) % kHotBlocks : (r >> 8) % kAllBlocks;
            const std::size_t set = ((blk * 0x9E3779B1u) >> 7) & (kSets - 1);
            std::uint64_t* tag = &l.tags[set * kWays];
            std::uint8_t* age = &l.ages[set * kWays];
            std::size_t hit = kWays, oldest = 0;
            for (std::size_t w = 0; w < kWays; ++w) {
                if (tag[w] == blk + 1)
                    hit = w;
                if (age[w] > age[oldest])
                    oldest = w;
            }
            if (hit < kWays) {
                ++hits;
            } else {
                hit = oldest;
                tag[hit] = blk + 1;
            }
            for (std::size_t w = 0; w < kWays; ++w)
                age[w] += age[w] < 255;
            age[hit] = 0;
        }
        secs[j] = std::chrono::duration<double>(Clock::now() - t0).count();
        l.hits = hits; // keeps the loop from being optimised away
    });
    double sum = 0.0;
    for (const double s : secs)
        sum += s;
    return sum / static_cast<double>(secs.size());
}

} // namespace perfbench

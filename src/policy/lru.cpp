#include "policy/lru.hpp"

namespace mrp::policy {

LruPolicy::LruPolicy(const cache::CacheGeometry& geom)
    : ways_(geom.ways()),
      stamps_(static_cast<std::size_t>(geom.sets()) * geom.ways(), 0)
{
}

void
LruPolicy::touch(std::uint32_t set, std::uint32_t way)
{
    stamps_[static_cast<std::size_t>(set) * ways_ + way] = ++clock_;
}

void
LruPolicy::onHit(const cache::AccessInfo&, std::uint32_t set,
                 std::uint32_t way)
{
    touch(set, way);
}

std::uint32_t
LruPolicy::victimWay(const cache::AccessInfo&, std::uint32_t set)
{
    // First minimum stamp, with the running minimum in a register.
    const std::uint64_t* stamps =
        &stamps_[static_cast<std::size_t>(set) * ways_];
    std::uint32_t victim = 0;
    std::uint64_t oldest = stamps[0];
    for (std::uint32_t w = 1; w < ways_; ++w) {
        if (stamps[w] < oldest) {
            oldest = stamps[w];
            victim = w;
        }
    }
    return victim;
}

void
LruPolicy::onFill(const cache::AccessInfo&, std::uint32_t set,
                  std::uint32_t way)
{
    touch(set, way);
}

std::uint32_t
LruPolicy::rankOf(std::uint32_t set, std::uint32_t way) const
{
    const std::size_t base = static_cast<std::size_t>(set) * ways_;
    const std::uint64_t mine = stamps_[base + way];
    std::uint32_t rank = 0;
    for (std::uint32_t w = 0; w < ways_; ++w)
        if (stamps_[base + w] > mine)
            ++rank;
    return rank;
}

RandomPolicy::RandomPolicy(const cache::CacheGeometry& geom,
                           std::uint64_t seed)
    : ways_(geom.ways()), rng_(seed)
{
}

std::uint32_t
RandomPolicy::victimWay(const cache::AccessInfo&, std::uint32_t)
{
    return static_cast<std::uint32_t>(rng_.below(ways_));
}

} // namespace mrp::policy

#include "policy/srrip.hpp"

#include "util/logging.hpp"

namespace mrp::policy {

SrripPolicy::SrripPolicy(const cache::CacheGeometry& geom,
                         const SrripConfig& cfg)
    : cfg_(cfg), maxRrpv_((1u << cfg.bits) - 1), ways_(geom.ways()),
      rrpv_(static_cast<std::size_t>(geom.sets()) * geom.ways(),
            static_cast<std::uint8_t>((1u << cfg.bits) - 1))
{
    fatalIf(cfg.bits == 0 || cfg.bits > 7, "rrpv width out of range");
    fatalIf(cfg.insertRrpv > maxRrpv_ || cfg.hitRrpv > maxRrpv_,
            "rrpv insertion values out of range");
}

unsigned
SrripPolicy::rrpvOf(std::uint32_t set, std::uint32_t way) const
{
    return rrpv_[static_cast<std::size_t>(set) * ways_ + way];
}

void
SrripPolicy::setRrpv(std::uint32_t set, std::uint32_t way, unsigned v)
{
    panicIf(v > maxRrpv_, "rrpv out of range");
    rrpv_[static_cast<std::size_t>(set) * ways_ + way] =
        static_cast<std::uint8_t>(v);
}

void
SrripPolicy::onHit(const cache::AccessInfo&, std::uint32_t set,
                   std::uint32_t way)
{
    setRrpv(set, way, cfg_.hitRrpv);
}

std::uint32_t
SrripPolicy::victimWay(const cache::AccessInfo&, std::uint32_t set)
{
    const std::size_t base = static_cast<std::size_t>(set) * ways_;
    // Find the oldest re-reference prediction and age everyone up to
    // the maximum in one step (equivalent to RRIP's increment loop).
    unsigned oldest = 0;
    std::uint32_t victim = 0;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (rrpv_[base + w] > oldest) {
            oldest = rrpv_[base + w];
            victim = w;
        }
    }
    if (oldest < maxRrpv_) {
        const unsigned delta = maxRrpv_ - oldest;
        for (std::uint32_t w = 0; w < ways_; ++w)
            rrpv_[base + w] = static_cast<std::uint8_t>(
                rrpv_[base + w] + delta > maxRrpv_
                    ? maxRrpv_
                    : rrpv_[base + w] + delta);
    }
    return victim;
}

void
SrripPolicy::onFill(const cache::AccessInfo&, std::uint32_t set,
                    std::uint32_t way)
{
    setRrpv(set, way, cfg_.insertRrpv);
}

DrripPolicy::DrripPolicy(const cache::CacheGeometry& geom,
                         const DrripConfig& cfg, std::uint64_t seed)
    : cfg_(cfg), rrip_(geom, cfg.srrip), rng_(seed),
      pselMax_((1 << (cfg.pselBits - 1)) - 1)
{
}

DrripPolicy::SetRole
DrripPolicy::roleOf(std::uint32_t set) const
{
    const std::uint32_t r = set % cfg_.duelingPeriod;
    if (r == 0)
        return SetRole::SrripLeader;
    if (r == cfg_.duelingPeriod / 2 + 1)
        return SetRole::BrripLeader;
    return SetRole::Follower;
}

void
DrripPolicy::onHit(const cache::AccessInfo& info, std::uint32_t set,
                   std::uint32_t way)
{
    rrip_.onHit(info, set, way);
}

void
DrripPolicy::onMiss(const cache::AccessInfo& info, std::uint32_t set)
{
    // Leader-set misses steer the policy-selection counter.
    if (!cache::isDemand(info.type))
        return;
    switch (roleOf(set)) {
      case SetRole::SrripLeader:
        if (psel_ < pselMax_)
            ++psel_;
        break;
      case SetRole::BrripLeader:
        if (psel_ > -pselMax_ - 1)
            --psel_;
        break;
      case SetRole::Follower:
        break;
    }
}

std::uint32_t
DrripPolicy::victimWay(const cache::AccessInfo& info, std::uint32_t set)
{
    return rrip_.victimWay(info, set);
}

void
DrripPolicy::onFill(const cache::AccessInfo& info, std::uint32_t set,
                    std::uint32_t way)
{
    bool use_brrip;
    switch (roleOf(set)) {
      case SetRole::SrripLeader:
        use_brrip = false;
        break;
      case SetRole::BrripLeader:
        use_brrip = true;
        break;
      default:
        // psel counts SRRIP-leader misses up: positive means SRRIP is
        // missing more, so followers use BRRIP.
        use_brrip = psel_ > 0;
        break;
    }
    if (!use_brrip) {
        rrip_.onFill(info, set, way);
        return;
    }
    // Bimodal RRIP: distant re-reference, occasionally long.
    const bool near_insert =
        rng_.below(1ull << cfg_.bipEpsilonLog2) == 0;
    rrip_.setRrpv(set, way,
                  near_insert ? cfg_.srrip.insertRrpv : rrip_.maxRrpv());
}

} // namespace mrp::policy

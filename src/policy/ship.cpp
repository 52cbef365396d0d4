#include "policy/ship.hpp"

#include "util/hash.hpp"

namespace mrp::policy {

ShipPolicy::ShipPolicy(const cache::CacheGeometry& geom,
                       const ShipConfig& cfg)
    : cfg_(cfg), rrip_(geom, cfg.srrip),
      shct_(cfg.shctEntries,
            SatCounter(cfg.counterBits, 1)), // weakly reused
      ways_(geom.ways()),
      signature_(static_cast<std::size_t>(geom.sets()) * geom.ways(), 0),
      outcome_(static_cast<std::size_t>(geom.sets()) * geom.ways(), 0)
{
}

std::uint32_t
ShipPolicy::signatureOf(Pc pc) const
{
    return hashToIndex(pc, cfg_.shctEntries);
}

std::uint32_t
ShipPolicy::shctOf(Pc pc) const
{
    return shct_[signatureOf(pc)].value();
}

void
ShipPolicy::onHit(const cache::AccessInfo& info, std::uint32_t set,
                  std::uint32_t way)
{
    if (info.type == cache::AccessType::Writeback)
        return;
    const std::size_t idx = static_cast<std::size_t>(set) * ways_ + way;
    if (!outcome_[idx]) {
        // First reuse of this fill: the inserting signature was right
        // to expect a hit.
        outcome_[idx] = 1;
        shct_[signature_[idx]].increment();
    }
    rrip_.onHit(info, set, way);
}

std::uint32_t
ShipPolicy::victimWay(const cache::AccessInfo& info, std::uint32_t set)
{
    return rrip_.victimWay(info, set);
}

void
ShipPolicy::onFill(const cache::AccessInfo& info, std::uint32_t set,
                   std::uint32_t way)
{
    const std::size_t idx = static_cast<std::size_t>(set) * ways_ + way;
    const std::uint32_t sig = signatureOf(info.pc);
    signature_[idx] = sig;
    outcome_[idx] = 0;
    // Zero counter => this signature's fills are never reused: insert
    // at the eviction point. Otherwise the SRRIP long interval.
    if (shct_[sig].value() == 0)
        rrip_.setRrpv(set, way, rrip_.maxRrpv());
    else
        rrip_.onFill(info, set, way);
}

void
ShipPolicy::onEvict(std::uint32_t set, std::uint32_t way)
{
    const std::size_t idx = static_cast<std::size_t>(set) * ways_ + way;
    if (!outcome_[idx])
        shct_[signature_[idx]].decrement();
    outcome_[idx] = 0;
}

} // namespace mrp::policy

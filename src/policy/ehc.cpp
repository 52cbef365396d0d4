#include "policy/ehc.hpp"

#include "util/hash.hpp"
#include "util/logging.hpp"

namespace mrp::policy {

EhcPolicy::EhcPolicy(const cache::CacheGeometry& geom,
                     const EhcConfig& cfg)
    : cfg_(cfg), ways_(geom.ways()),
      blocks_(static_cast<std::size_t>(geom.sets()) * geom.ways()),
      table_(cfg.tableEntries, 0)
{
    fatalIf(cfg.tableEntries == 0, "EHC needs a non-empty table");
    fatalIf(cfg.fracBits > 16 || cfg.ewmaShift > 8,
            "EHC fixed-point parameters out of range");
}

std::uint32_t
EhcPolicy::signatureOf(Pc pc) const
{
    return hashToIndex(pc, cfg_.tableEntries);
}

std::uint32_t
EhcPolicy::expectedHitsOf(Pc pc) const
{
    return table_[signatureOf(pc)];
}

std::int64_t
EhcPolicy::remainingOf(const BlockState& b) const
{
    const std::int64_t expected = table_[b.signature];
    const std::int64_t seen = static_cast<std::int64_t>(b.hits)
                              << cfg_.fracBits;
    const std::int64_t rem = expected - seen;
    return rem > 0 ? rem : 0;
}

void
EhcPolicy::onHit(const cache::AccessInfo& info, std::uint32_t set,
                 std::uint32_t way)
{
    // Writebacks say nothing about demand reuse.
    if (info.type == cache::AccessType::Writeback)
        return;
    BlockState& b = blocks_[static_cast<std::size_t>(set) * ways_ + way];
    ++b.hits;
    b.stamp = ++clock_;
}

std::uint32_t
EhcPolicy::victimWay(const cache::AccessInfo&, std::uint32_t set)
{
    const std::size_t base = static_cast<std::size_t>(set) * ways_;
    std::uint32_t victim = ways_;
    std::int64_t victim_rem = 0;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        const BlockState& b = blocks_[base + w];
        const std::int64_t rem = remainingOf(b);
        if (victim == ways_ || rem < victim_rem ||
            (rem == victim_rem && b.stamp < blocks_[base + victim].stamp))
        {
            victim = w;
            victim_rem = rem;
        }
    }
    return victim;
}

void
EhcPolicy::onFill(const cache::AccessInfo& info, std::uint32_t set,
                  std::uint32_t way)
{
    BlockState& b = blocks_[static_cast<std::size_t>(set) * ways_ + way];
    b.signature = signatureOf(info.pc);
    b.hits = 0;
    b.stamp = ++clock_;
}

void
EhcPolicy::onEvict(std::uint32_t set, std::uint32_t way)
{
    // Train the signature's expected lifetime hit count as an EWMA of
    // what this block actually collected.
    BlockState& b = blocks_[static_cast<std::size_t>(set) * ways_ + way];
    std::uint32_t& e = table_[b.signature];
    const std::uint64_t observed = static_cast<std::uint64_t>(b.hits)
                                   << cfg_.fracBits;
    e = static_cast<std::uint32_t>(e - (e >> cfg_.ewmaShift) +
                                   (observed >> cfg_.ewmaShift));
    b.hits = 0;
}

} // namespace mrp::policy

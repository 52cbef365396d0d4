#include "policy/tree_plru.hpp"

#include "util/bitfield.hpp"
#include "util/logging.hpp"

namespace mrp::policy {

TreePlru::TreePlru(std::uint32_t sets, std::uint32_t ways)
    : sets_(sets), ways_(ways), levels_(log2Ceil(ways)),
      bits_(static_cast<std::size_t>(sets) * (ways - 1), 0)
{
    fatalIf(!isPowerOfTwo(ways) || ways < 2,
            "tree PLRU needs a power-of-two associativity >= 2");
}

std::uint32_t
TreePlru::victim(std::uint32_t set) const
{
    const std::size_t base = static_cast<std::size_t>(set) * (ways_ - 1);
    std::uint32_t node = 1; // 1-based heap indexing within the set
    for (unsigned level = 0; level < levels_; ++level)
        node = 2 * node + bits_[base + node - 1];
    return node - ways_;
}

void
TreePlru::setPosition(std::uint32_t set, std::uint32_t way,
                      std::uint32_t pos)
{
    panicIf(way >= ways_ || pos >= ways_, "way/pos out of range");
    const std::size_t base = static_cast<std::size_t>(set) * (ways_ - 1);
    // Walk from the root toward the way's leaf; at depth d the desired
    // "points toward way" flag is bit (levels-1-d) of pos.
    std::uint32_t node = 1;
    const std::uint32_t leaf = way + ways_;
    for (unsigned level = 0; level < levels_; ++level) {
        const unsigned depth_bit = levels_ - 1 - level;
        const std::uint32_t child_toward =
            (leaf >> depth_bit) & 1; // which child leads to the way
        const bool want_toward = ((pos >> depth_bit) & 1) != 0;
        bits_[base + node - 1] = static_cast<std::uint8_t>(
            want_toward ? child_toward : child_toward ^ 1);
        node = 2 * node + child_toward;
    }
}

std::uint32_t
TreePlru::position(std::uint32_t set, std::uint32_t way) const
{
    panicIf(way >= ways_, "way out of range");
    const std::size_t base = static_cast<std::size_t>(set) * (ways_ - 1);
    std::uint32_t node = 1;
    const std::uint32_t leaf = way + ways_;
    std::uint32_t pos = 0;
    for (unsigned level = 0; level < levels_; ++level) {
        const unsigned depth_bit = levels_ - 1 - level;
        const std::uint32_t child_toward = (leaf >> depth_bit) & 1;
        if (bits_[base + node - 1] == child_toward)
            pos |= 1u << depth_bit;
        node = 2 * node + child_toward;
    }
    return pos;
}

MdppPolicy::MdppPolicy(const cache::CacheGeometry& geom,
                       const MdppConfig& cfg)
    : cfg_(cfg), tree_(geom.sets(), geom.ways())
{
    fatalIf(cfg.insertPos >= geom.ways() || cfg.promotePos >= geom.ways(),
            "MDPP positions out of range");
}

void
MdppPolicy::onHit(const cache::AccessInfo& info, std::uint32_t set,
                  std::uint32_t way)
{
    // Writebacks refresh nothing: the block's recency reflects demand
    // locality only.
    if (info.type == cache::AccessType::Writeback)
        return;
    tree_.setPosition(set, way, cfg_.promotePos);
}

std::uint32_t
MdppPolicy::victimWay(const cache::AccessInfo&, std::uint32_t set)
{
    return tree_.victim(set);
}

void
MdppPolicy::onFill(const cache::AccessInfo&, std::uint32_t set,
                   std::uint32_t way)
{
    tree_.setPosition(set, way, cfg_.insertPos);
}

} // namespace mrp::policy

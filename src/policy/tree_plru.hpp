/**
 * @file
 * Tree-based pseudo-LRU with positional placement and promotion —
 * the machinery behind static MDPP (Teran et al., HPCA 2016), the
 * paper's single-thread default replacement policy.
 *
 * A 16-way set uses 15 tree bits. Reading the root-to-leaf path of a
 * way as a binary number (1 where the node's pointer aims toward the
 * way) yields the way's *position*: 0 is maximally protected (MRU-
 * like) and ways-1 is the victim. Writing the path bits installs a
 * block at any of the 16 positions using only log2(ways) bit updates —
 * the "minimal disturbance" placement/promotion of MDPP.
 */

#ifndef MRP_POLICY_TREE_PLRU_HPP
#define MRP_POLICY_TREE_PLRU_HPP

#include <cstdint>
#include <vector>

#include "cache/llc_policy.hpp"

namespace mrp::policy {

/** Per-set PLRU trees for a whole cache. */
class TreePlru
{
  public:
    TreePlru(std::uint32_t sets, std::uint32_t ways);

    std::uint32_t ways() const { return ways_; }

    /** The way all pointers currently lead to (position ways-1). */
    std::uint32_t victim(std::uint32_t set) const;

    /**
     * Write @p way's path bits so its position becomes @p pos
     * (0 = most protected, ways-1 = next victim).
     */
    void setPosition(std::uint32_t set, std::uint32_t way,
                     std::uint32_t pos);

    /** Current position of @p way (0 .. ways-1). */
    std::uint32_t position(std::uint32_t set, std::uint32_t way) const;

  private:
    std::uint32_t sets_;
    std::uint32_t ways_;
    unsigned levels_;
    std::vector<std::uint8_t> bits_; // sets * (ways-1), 1-based in-set
};

/** Static MDPP parameters (placement / promotion positions). */
struct MdppConfig
{
    std::uint32_t insertPos = 11; //!< position of newly filled blocks
    std::uint32_t promotePos = 0; //!< position after a demand hit
};

/**
 * Static Minimal Disturbance Placement and Promotion over tree-PLRU.
 * 15 bits per 16-way set, as the paper budgets (§4.4).
 */
class MdppPolicy : public cache::LlcPolicy
{
  public:
    MdppPolicy(const cache::CacheGeometry& geom,
               const MdppConfig& cfg = MdppConfig{});

    std::string name() const override { return "MDPP"; }
    void onHit(const cache::AccessInfo& info, std::uint32_t set,
               std::uint32_t way) override;
    std::uint32_t victimWay(const cache::AccessInfo& info,
                            std::uint32_t set) override;
    void onFill(const cache::AccessInfo& info, std::uint32_t set,
                std::uint32_t way) override;

    TreePlru& tree() { return tree_; }

  private:
    MdppConfig cfg_;
    TreePlru tree_;
};

} // namespace mrp::policy

#endif // MRP_POLICY_TREE_PLRU_HPP

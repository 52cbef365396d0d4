/**
 * @file
 * Expected Hit Count replacement (Vakil-Ghahani et al., CAL 2018,
 * arXiv:1808.05024), a shared-cache competitor baseline available
 * by name ("EHC") in the policy registry.
 *
 * Each block counts the hits it has received since fill; a
 * PC-signature-indexed table remembers, as an EWMA trained at
 * eviction, how many hits blocks inserted by that signature tend to
 * collect over their lifetime. The victim is the block with the
 * fewest *expected remaining* hits (expected-per-lifetime minus
 * hits-so-far), tie-broken by oldest fill/touch stamp and then lowest
 * way so the choice is deterministic.
 */

#ifndef MRP_POLICY_EHC_HPP
#define MRP_POLICY_EHC_HPP

#include <vector>

#include "cache/llc_policy.hpp"

namespace mrp::policy {

/** EHC parameters. */
struct EhcConfig
{
    std::uint32_t tableEntries = 4096; //!< signature table size
    unsigned ewmaShift = 3;            //!< EWMA weight 1/2^shift
    unsigned fracBits = 4;             //!< fixed-point fraction bits
};

/** Expected-hit-count replacement policy. */
class EhcPolicy : public cache::LlcPolicy
{
  public:
    explicit EhcPolicy(const cache::CacheGeometry& geom,
                       const EhcConfig& cfg = EhcConfig{});

    std::string name() const override { return "EHC"; }
    void onHit(const cache::AccessInfo& info, std::uint32_t set,
               std::uint32_t way) override;
    std::uint32_t victimWay(const cache::AccessInfo& info,
                            std::uint32_t set) override;
    void onFill(const cache::AccessInfo& info, std::uint32_t set,
                std::uint32_t way) override;
    void onEvict(std::uint32_t set, std::uint32_t way) override;

    /** Expected lifetime hits for @p pc, in fixed point (tests). */
    std::uint32_t expectedHitsOf(Pc pc) const;

  private:
    struct BlockState
    {
        std::uint32_t signature = 0;
        std::uint32_t hits = 0;
        std::uint64_t stamp = 0;
    };

    std::uint32_t signatureOf(Pc pc) const;
    /** Expected remaining hits of a block, in fixed point. */
    std::int64_t remainingOf(const BlockState& b) const;

    EhcConfig cfg_;
    std::uint32_t ways_;
    std::vector<BlockState> blocks_;
    std::vector<std::uint32_t> table_; //!< fixed-point expected hits
    std::uint64_t clock_ = 0;
};

} // namespace mrp::policy

#endif // MRP_POLICY_EHC_HPP

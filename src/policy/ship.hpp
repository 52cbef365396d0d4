/**
 * @file
 * SHiP: Signature-based Hit Predictor (Wu et al. — MICRO 2011),
 * referenced by the paper as the canonical PC-signature reuse scheme
 * (the multiperspective bias(A,1) feature degenerates to exactly this
 * idea).
 *
 * Each block remembers the signature (hashed PC) that inserted it and
 * an outcome bit. On eviction without reuse, the signature's counter
 * in the Signature History Counter Table (SHCT) is decremented; on
 * first reuse it is incremented. Insertions whose signature counter is
 * zero are placed at the distant RRPV (likely dead); others at the
 * intermediate RRPV, over an SRRIP substrate.
 */

#ifndef MRP_POLICY_SHIP_HPP
#define MRP_POLICY_SHIP_HPP

#include <vector>

#include "cache/llc_policy.hpp"
#include "policy/srrip.hpp"
#include "util/sat_counter.hpp"

namespace mrp::policy {

/** SHiP sizing parameters. */
struct ShipConfig
{
    std::uint32_t shctEntries = 16384;
    unsigned counterBits = 3;
    SrripConfig srrip{};
};

/** SHiP-PC over an SRRIP substrate. */
class ShipPolicy : public cache::LlcPolicy
{
  public:
    ShipPolicy(const cache::CacheGeometry& geom,
               const ShipConfig& cfg = ShipConfig{});

    std::string name() const override { return "SHiP"; }
    void onHit(const cache::AccessInfo& info, std::uint32_t set,
               std::uint32_t way) override;
    std::uint32_t victimWay(const cache::AccessInfo& info,
                            std::uint32_t set) override;
    void onFill(const cache::AccessInfo& info, std::uint32_t set,
                std::uint32_t way) override;
    void onEvict(std::uint32_t set, std::uint32_t way) override;

    /** Current SHCT counter for a PC (diagnostics/tests). */
    std::uint32_t shctOf(Pc pc) const;

  private:
    std::uint32_t signatureOf(Pc pc) const;

    ShipConfig cfg_;
    SrripPolicy rrip_;
    std::vector<SatCounter> shct_;
    // Per-block: inserting signature and whether it was reused.
    std::uint32_t ways_;
    std::vector<std::uint32_t> signature_;
    std::vector<std::uint8_t> outcome_;
};

} // namespace mrp::policy

#endif // MRP_POLICY_SHIP_HPP

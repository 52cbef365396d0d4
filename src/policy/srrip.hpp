/**
 * @file
 * Re-Reference Interval Prediction policies: SRRIP and DRRIP
 * (Jaleel et al., ISCA 2010). SRRIP with 2-bit re-reference values is
 * the default replacement policy of the paper's multi-core MPPPB.
 */

#ifndef MRP_POLICY_SRRIP_HPP
#define MRP_POLICY_SRRIP_HPP

#include <vector>

#include "cache/llc_policy.hpp"
#include "util/rng.hpp"

namespace mrp::policy {

/** SRRIP parameters. */
struct SrripConfig
{
    unsigned bits = 2;        //!< RRPV width; max value = 2^bits - 1
    unsigned insertRrpv = 2;  //!< RRPV of newly inserted blocks ("long")
    unsigned hitRrpv = 0;     //!< RRPV after a hit ("near-immediate")
};

/**
 * Static RRIP. Exposes rrpv manipulation so MPPPB can reuse the
 * machinery as its multi-core substrate.
 */
class SrripPolicy : public cache::LlcPolicy
{
  public:
    SrripPolicy(const cache::CacheGeometry& geom,
                const SrripConfig& cfg = SrripConfig{});

    std::string name() const override { return "SRRIP"; }
    void onHit(const cache::AccessInfo& info, std::uint32_t set,
               std::uint32_t way) override;
    std::uint32_t victimWay(const cache::AccessInfo& info,
                            std::uint32_t set) override;
    void onFill(const cache::AccessInfo& info, std::uint32_t set,
                std::uint32_t way) override;

    unsigned maxRrpv() const { return maxRrpv_; }
    unsigned rrpvOf(std::uint32_t set, std::uint32_t way) const;
    void setRrpv(std::uint32_t set, std::uint32_t way, unsigned v);

  protected:
    const SrripConfig& config() const { return cfg_; }

  private:
    SrripConfig cfg_;
    unsigned maxRrpv_;
    std::uint32_t ways_;
    std::vector<std::uint8_t> rrpv_;
};

/** DRRIP parameters. */
struct DrripConfig
{
    SrripConfig srrip{};
    unsigned duelingPeriod = 64; //!< one leader pair per this many sets
    unsigned pselBits = 10;
    unsigned bipEpsilonLog2 = 5; //!< BRRIP inserts "near" 1/32 of fills
};

/**
 * Dynamic RRIP: set-dueling between SRRIP insertion and bimodal
 * (BRRIP) insertion, following Jaleel et al. and Qureshi et al.'s
 * set-dueling monitors.
 */
class DrripPolicy : public cache::LlcPolicy
{
  public:
    DrripPolicy(const cache::CacheGeometry& geom,
                const DrripConfig& cfg = DrripConfig{},
                std::uint64_t seed = 7);

    std::string name() const override { return "DRRIP"; }
    void onHit(const cache::AccessInfo& info, std::uint32_t set,
               std::uint32_t way) override;
    void onMiss(const cache::AccessInfo& info, std::uint32_t set) override;
    std::uint32_t victimWay(const cache::AccessInfo& info,
                            std::uint32_t set) override;
    void onFill(const cache::AccessInfo& info, std::uint32_t set,
                std::uint32_t way) override;

  private:
    enum class SetRole { Follower, SrripLeader, BrripLeader };
    SetRole roleOf(std::uint32_t set) const;

    DrripConfig cfg_;
    SrripPolicy rrip_;
    Rng rng_;
    int psel_ = 0;
    int pselMax_;
};

} // namespace mrp::policy

#endif // MRP_POLICY_SRRIP_HPP

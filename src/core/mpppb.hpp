/**
 * @file
 * Multiperspective Placement, Promotion, and Bypass (paper §3.6-3.7).
 *
 * On a miss the confidence is thresholded: above τ0 the fill is
 * bypassed; otherwise the block is placed at position π1/π2/π3 chosen
 * by τ1/τ2/τ3, or at the MRU position below τ3. On a hit, confidence
 * above τ4 suppresses promotion, leaving the block at its current
 * recency position (this is how a block "remembers" it was predicted
 * dead without a per-block state bit).
 *
 * Two default replacement substrates are supported, as in the paper:
 * static MDPP (tree-PLRU, 16 positions — single-thread) and SRRIP
 * (2-bit RRPVs, 4 positions — multi-core).
 */

#ifndef MRP_CORE_MPPPB_HPP
#define MRP_CORE_MPPPB_HPP

#include <array>
#include <memory>

#include "cache/llc_policy.hpp"
#include "core/predictor.hpp"
#include "policy/srrip.hpp"
#include "policy/tree_plru.hpp"

namespace mrp::core {

/** Which default replacement policy MPPPB runs over. */
enum class Substrate : std::uint8_t {
    Mdpp,  //!< tree-PLRU positions 0..15 (single-thread default)
    Srrip, //!< 2-bit RRPV positions 0..3 (multi-core default)
};

/** Thresholds and placement positions (§3.6, tuned per §5.5). */
struct MpppbThresholds
{
    int tauBypass;              //!< τ0
    std::array<int, 3> tau;     //!< τ1 > τ2 > τ3
    std::array<std::uint32_t, 3> pi; //!< π1, π2, π3 (π1 least favorable)
    int tauNoPromote;           //!< τ4
};

/** Full MPPPB configuration. */
struct MpppbConfig
{
    MultiperspectiveConfig predictor;
    Substrate substrate = Substrate::Mdpp;
    MpppbThresholds thresholds{};
    bool bypassEnabled = true;
    /**
     * Extension beyond the paper (its conclusion calls for exploring
     * further optimizations): adapt the bypass decision with set
     * dueling — one group of leader sets always honors τ0, another
     * never bypasses, and follower sets go with whichever group
     * misses less. Protects workloads whose bypass predictions are
     * systematically wrong.
     */
    bool dynamicBypass = false;
    unsigned duelingPeriod = 64; //!< one leader pair per this many sets
    unsigned pselBits = 10;
    policy::MdppConfig mdpp{};
    policy::SrripConfig srrip{};
};

/** Paper-default single-thread configuration (Table 1(a) features). */
MpppbConfig singleThreadMpppbConfig();

/** Paper-default multi-core configuration (Table 2 features). */
MpppbConfig multiCoreMpppbConfig();

/**
 * @p cfg with feature @p idx removed (core::without) and τ_bypass,
 * τ1..τ3 and τ_no-promote scaled by the size ratio (n-1)/n, truncated
 * toward zero: the confidence sum shrinks with the feature count, so
 * the decision operating point stays comparable (Fig. 10, Table 3).
 */
MpppbConfig withoutFeature(const MpppbConfig& cfg, std::size_t idx);

/** The MPPPB LLC policy. */
class MpppbPolicy : public cache::LlcPolicy
{
  public:
    MpppbPolicy(const cache::CacheGeometry& geom, unsigned cores,
                const MpppbConfig& cfg);

    std::string name() const override { return "MPPPB"; }
    void onHit(const cache::AccessInfo& info, std::uint32_t set,
               std::uint32_t way) override;
    void onMiss(const cache::AccessInfo& info, std::uint32_t set) override;
    bool shouldBypass(const cache::AccessInfo& info,
                      std::uint32_t set) override;
    std::uint32_t victimWay(const cache::AccessInfo& info,
                            std::uint32_t set) override;
    void onFill(const cache::AccessInfo& info, std::uint32_t set,
                std::uint32_t way) override;
    void attachTelemetry(telemetry::MetricsRegistry& registry) override;

    MultiperspectivePredictor& predictor() { return predictor_; }
    const MpppbConfig& config() const { return cfg_; }

    /** Current dueling verdict (always true without dynamicBypass). */
    bool bypassFavored() const;

  private:
    enum class SetRole : std::uint8_t {
        Follower,
        BypassLeader,
        NoBypassLeader,
    };

    /** Decision counters fed once telemetry is attached. */
    struct Telemetry
    {
        telemetry::Counter* placePi1 = nullptr;
        telemetry::Counter* placePi2 = nullptr;
        telemetry::Counter* placePi3 = nullptr;
        telemetry::Counter* placeMru = nullptr;
        telemetry::Counter* promotions = nullptr;
        telemetry::Counter* promotionsSuppressed = nullptr;
        telemetry::Counter* bypassSuppressed = nullptr;
    };

    /** Map a confidence to a placement position (§3.6). */
    std::uint32_t placementFor(int confidence) const;
    void place(std::uint32_t set, std::uint32_t way, std::uint32_t pos);
    SetRole roleOf(std::uint32_t set) const;

    MpppbConfig cfg_;
    MultiperspectivePredictor predictor_;
    std::unique_ptr<policy::MdppPolicy> mdpp_;
    std::unique_ptr<policy::SrripPolicy> srrip_;
    std::uint32_t mruPos_;
    int lastConfidence_ = 0;
    int psel_ = 0;
    int pselMax_ = 0;
    std::unique_ptr<Telemetry> tel_; //!< null until attachTelemetry
};

} // namespace mrp::core

#endif // MRP_CORE_MPPPB_HPP

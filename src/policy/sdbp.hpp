/**
 * @file
 * Sampling Dead Block Prediction (Khan, Tian, Jiménez — MICRO 2010).
 *
 * A decoupled sampler of partial-tag LRU sets records, per block, the
 * PC that last touched it. A sampler hit means the previous toucher
 * was *not* a last touch (train toward live); a sampler eviction means
 * it *was* (train toward dead). Predictions sum three skewed tables of
 * 2-bit counters indexed by independent hashes of the current PC. The
 * policy uses predictions for replacement (evict predicted-dead blocks
 * first) and bypass, as in the original paper.
 */

#ifndef MRP_POLICY_SDBP_HPP
#define MRP_POLICY_SDBP_HPP

#include <memory>
#include <vector>

#include "cache/llc_policy.hpp"
#include "policy/lru.hpp"
#include "policy/reuse_predictor.hpp"
#include "policy/sampling.hpp"
#include "util/sat_counter.hpp"

namespace mrp::policy {

/** SDBP sizing and thresholds. */
struct SdbpConfig
{
    std::uint32_t sampledSetsPerCore = 64;
    std::uint32_t samplerAssoc = 12;   //!< reduced vs the LLC's 16
    std::uint32_t tableEntries = 4096; //!< per skewed table
    unsigned tables = 3;
    unsigned counterBits = 2;
    int deadThreshold = 8; //!< sum >= threshold => dead (max sum 9)
};

/** The SDBP confidence estimator (usable standalone for ROC probes). */
class SdbpPredictor : public ReusePredictor
{
  public:
    SdbpPredictor(const cache::CacheGeometry& llc_geom, unsigned cores,
                  const SdbpConfig& cfg = SdbpConfig{});

    std::string name() const override { return "SDBP"; }
    int observe(const cache::AccessInfo& info, std::uint32_t set,
                bool hit) override;
    int minConfidence() const override { return 0; }
    int maxConfidence() const override;

    /** Confidence for a PC without training (pure lookup). */
    int predict(Pc pc) const;

    bool isDead(int confidence) const
    {
        return confidence >= cfg_.deadThreshold;
    }

    const SdbpConfig& config() const { return cfg_; }

  private:
    struct Entry
    {
        bool valid = false;
        std::uint16_t tag = 0;
        Pc lastPc = 0;
    };

    void train(Pc pc, bool dead);

    SdbpConfig cfg_;
    SetSampling sampling_;
    std::vector<std::vector<Entry>> samplerSets_; // MRU-first order
    std::vector<std::vector<SatCounter>> tables_;
};

/** SDBP-driven LLC replacement-and-bypass policy. */
class SdbpPolicy : public cache::LlcPolicy
{
  public:
    SdbpPolicy(const cache::CacheGeometry& geom, unsigned cores,
               const SdbpConfig& cfg = SdbpConfig{});

    std::string name() const override { return "SDBP"; }
    void onHit(const cache::AccessInfo& info, std::uint32_t set,
               std::uint32_t way) override;
    void onMiss(const cache::AccessInfo& info, std::uint32_t set) override;
    bool shouldBypass(const cache::AccessInfo& info,
                      std::uint32_t set) override;
    std::uint32_t victimWay(const cache::AccessInfo& info,
                            std::uint32_t set) override;
    void onFill(const cache::AccessInfo& info, std::uint32_t set,
                std::uint32_t way) override;
    void onEvict(std::uint32_t set, std::uint32_t way) override;

    SdbpPredictor& predictor() { return predictor_; }

  private:
    SdbpPredictor predictor_;
    LruPolicy lru_;
    std::uint32_t ways_;
    std::vector<std::uint8_t> deadBit_;
    int lastConfidence_ = 0; //!< prediction for the in-flight miss
};

} // namespace mrp::policy

#endif // MRP_POLICY_SDBP_HPP

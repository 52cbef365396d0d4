/**
 * @file
 * Perceptron learning for reuse prediction (Teran, Wang, Jiménez —
 * MICRO 2016), the paper's strongest prior sampler-based technique.
 *
 * Six features — the current and three previous memory-access PCs
 * (each shifted by its depth) and two shifts of the block tag — index
 * six 256-entry tables of 6-bit weights. The summed weights are
 * thresholded for bypass and dead-block marking; training follows the
 * perceptron rule on sampler hits (decrement) and sampler evictions
 * (increment), gated by a training threshold.
 */

#ifndef MRP_POLICY_PERCEPTRON_HPP
#define MRP_POLICY_PERCEPTRON_HPP

#include <array>
#include <vector>

#include "cache/llc_policy.hpp"
#include "policy/lru.hpp"
#include "policy/reuse_predictor.hpp"
#include "policy/sampling.hpp"
#include "util/sat_counter.hpp"

namespace mrp::policy {

/** Perceptron reuse-prediction parameters. */
struct PerceptronConfig
{
    std::uint32_t sampledSetsPerCore = 64;
    std::uint32_t samplerAssoc = 16;
    unsigned weightBits = 6;
    int trainingThreshold = 35; //!< retrain while |yout| below this
    int bypassThreshold = 60;   //!< yout >= this on a miss => bypass
    int deadThreshold = 90;     //!< yout >= this => mark block dead
};

/** The perceptron confidence estimator. */
class PerceptronPredictor : public ReusePredictor
{
  public:
    static constexpr unsigned kFeatures = 6;
    static constexpr std::uint32_t kTableSize = 256;

    PerceptronPredictor(const cache::CacheGeometry& llc_geom,
                        unsigned cores,
                        const PerceptronConfig& cfg = PerceptronConfig{});

    std::string name() const override { return "Perceptron"; }
    int observe(const cache::AccessInfo& info, std::uint32_t set,
                bool hit) override;
    int minConfidence() const override
    {
        return static_cast<int>(kFeatures) * weightMin_;
    }
    int maxConfidence() const override
    {
        return static_cast<int>(kFeatures) * weightMax_;
    }

    const PerceptronConfig& config() const { return cfg_; }

  private:
    using IndexVec = std::array<std::uint8_t, kFeatures>;

    struct Entry
    {
        bool valid = false;
        std::uint16_t tag = 0;
        std::int16_t yout = 0;
        IndexVec indices{};
    };

    IndexVec computeIndices(const cache::AccessInfo& info) const;
    int sumOf(const IndexVec& idx) const;
    void adjust(const IndexVec& idx, bool dead);

    PerceptronConfig cfg_;
    int weightMin_;
    int weightMax_;
    SetSampling sampling_;
    std::vector<std::vector<Entry>> samplerSets_; // MRU-first order
    std::array<std::vector<SignedWeight>, kFeatures> tables_;
};

/** Perceptron-driven replacement and bypass policy. */
class PerceptronPolicy : public cache::LlcPolicy
{
  public:
    PerceptronPolicy(const cache::CacheGeometry& geom, unsigned cores,
                     const PerceptronConfig& cfg = PerceptronConfig{});

    std::string name() const override { return "Perceptron"; }
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

    PerceptronPredictor& predictor() { return predictor_; }

  private:
    PerceptronPredictor predictor_;
    LruPolicy lru_;
    std::uint32_t ways_;
    std::vector<std::uint8_t> deadBit_;
    int lastConfidence_ = 0;
};

} // namespace mrp::policy

#endif // MRP_POLICY_PERCEPTRON_HPP

/**
 * @file
 * True-LRU and Random LLC policies (baselines).
 */

#ifndef MRP_POLICY_LRU_HPP
#define MRP_POLICY_LRU_HPP

#include <vector>

#include "cache/llc_policy.hpp"
#include "util/rng.hpp"

namespace mrp::policy {

/** True least-recently-used replacement; the paper's baseline. */
class LruPolicy : public cache::LlcPolicy
{
  public:
    explicit LruPolicy(const cache::CacheGeometry& geom);

    std::string name() const override { return "LRU"; }
    void onHit(const cache::AccessInfo& info, std::uint32_t set,
               std::uint32_t way) override;
    std::uint32_t victimWay(const cache::AccessInfo& info,
                            std::uint32_t set) override;
    void onFill(const cache::AccessInfo& info, std::uint32_t set,
                std::uint32_t way) override;

    /** Recency rank of a way: 0 = MRU .. ways-1 = LRU. */
    std::uint32_t rankOf(std::uint32_t set, std::uint32_t way) const;

  private:
    void touch(std::uint32_t set, std::uint32_t way);

    std::uint32_t ways_;
    std::vector<std::uint64_t> stamps_;
    std::uint64_t clock_ = 0;
};

/** Uniform-random victim selection (testing/reference baseline). */
class RandomPolicy : public cache::LlcPolicy
{
  public:
    RandomPolicy(const cache::CacheGeometry& geom,
                 std::uint64_t seed = 12345);

    std::string name() const override { return "Random"; }
    void onHit(const cache::AccessInfo&, std::uint32_t,
               std::uint32_t) override
    {
    }
    std::uint32_t victimWay(const cache::AccessInfo& info,
                            std::uint32_t set) override;
    void onFill(const cache::AccessInfo&, std::uint32_t,
                std::uint32_t) override
    {
    }

  private:
    std::uint32_t ways_;
    Rng rng_;
};

} // namespace mrp::policy

#endif // MRP_POLICY_LRU_HPP

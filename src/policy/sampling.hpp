/**
 * @file
 * Set-sampling arithmetic shared by the sampler-based predictors:
 * which LLC sets are sampled, their dedicated sampler-set index, and
 * the 16-bit partial tags the samplers store.
 */

#ifndef MRP_POLICY_SAMPLING_HPP
#define MRP_POLICY_SAMPLING_HPP

#include <cstdint>

#include "util/bitfield.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"
#include "util/types.hpp"

namespace mrp::policy {

/**
 * Maps LLC sets onto a smaller population of sampled sets: every
 * ratio-th set, where the ratio is a power of two (the LLC set count
 * is one, and the sampled count must divide it), so the per-access
 * check is a mask and the sampler-set index a shift.
 */
class SetSampling
{
  public:
    SetSampling(std::uint32_t llc_sets, std::uint32_t sampled_sets)
        : shift_(log2Ceil(checkedRatio(llc_sets, sampled_sets))),
          mask_((std::uint32_t{1} << shift_) - 1),
          sampledSets_(sampled_sets)
    {
    }

    std::uint32_t sampledSets() const { return sampledSets_; }

    /** True if @p llc_set is one of the sampled sets. */
    bool sampled(std::uint32_t llc_set) const
    {
        return (llc_set & mask_) == 0;
    }

    /** Sampler-set index of a sampled LLC set. */
    std::uint32_t
    samplerSetOf(std::uint32_t llc_set) const
    {
        panicIf(!sampled(llc_set), "set is not sampled");
        return llc_set >> shift_;
    }

    /** 16-bit partial tag stored by the samplers (paper §3.3). */
    static std::uint16_t
    partialTag(Addr addr)
    {
        return static_cast<std::uint16_t>(mix64(blockAddr(addr)));
    }

  private:
    static std::uint32_t
    checkedRatio(std::uint32_t llc_sets, std::uint32_t sampled_sets)
    {
        fatalIf(sampled_sets == 0 || sampled_sets > llc_sets,
                "invalid sampled-set count");
        fatalIf(llc_sets % sampled_sets != 0,
                "sampled sets must divide the LLC set count");
        const std::uint32_t ratio = llc_sets / sampled_sets;
        fatalIf(!isPowerOfTwo(ratio),
                "LLC sets per sampled set must be a power of two");
        return ratio;
    }

    unsigned shift_;
    std::uint32_t mask_;
    std::uint32_t sampledSets_;
};

} // namespace mrp::policy

#endif // MRP_POLICY_SAMPLING_HPP

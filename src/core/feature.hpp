/**
 * @file
 * The seven parameterized feature types of multiperspective reuse
 * prediction (paper §3.2).
 *
 * Every feature carries an associativity parameter A — the LRU stack
 * position beyond which a block counts as dead *for that feature's
 * table* — and a Boolean X that exclusive-ORs the feature bits with
 * the current PC. pc/address/offset features additionally select a bit
 * range B..E of their value; pc selects the W-th most recent memory
 * access instruction.
 */

#ifndef MRP_CORE_FEATURE_HPP
#define MRP_CORE_FEATURE_HPP

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cache/access.hpp"
#include "util/bitfield.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace mrp::core {

/** The seven feature types. */
enum class FeatureKind : std::uint8_t {
    Pc,       //!< pc(A,B,E,W,X): bits of the W-th most recent PC
    Address,  //!< address(A,B,E,X): bits of the physical address
    Bias,     //!< bias(A,X): the constant 0 (a global/PC counter)
    Burst,    //!< burst(A,X): access is to the set's MRU block
    Insert,   //!< insert(A,X): access is an insertion (missed)
    LastMiss, //!< lastmiss(A,X): previous access to this set missed
    Offset,   //!< offset(A,B,E,X): bits of the in-block byte offset
};

/** Largest associativity a feature may simulate (sampler is 18-way). */
inline constexpr unsigned kMaxFeatureAssoc = 18;

/** One fully parameterized feature. */
struct FeatureSpec
{
    FeatureKind kind = FeatureKind::Bias;
    unsigned assoc = kMaxFeatureAssoc; //!< A in 1..18
    unsigned begin = 0;                //!< B (pc/address/offset)
    unsigned end = 0;                  //!< E
    unsigned depth = 0;                //!< W (pc only)
    bool xorPc = false;                //!< X

    /** Number of weights in this feature's table (1, 2, <=64, 256). */
    std::uint32_t tableSize() const;

    /** Paper-style text form, e.g.\ "pc(10,1,53,10,0)". */
    std::string toString() const;

    /** Parse the paper-style text form; throws FatalError on errors. */
    static FeatureSpec parse(const std::string& text);

    /** Draw a uniformly random valid feature (search, §5.1). */
    static FeatureSpec random(Rng& rng);

    /** Return a copy with one parameter slightly perturbed (§5.1). */
    FeatureSpec perturbed(Rng& rng) const;

    bool operator==(const FeatureSpec&) const = default;
};

/** Everything a feature may look at when forming its index. */
struct FeatureInput
{
    Pc pc = 0;
    Addr addr = 0;
    const cache::CoreContext* ctx = nullptr;
    bool isInsert = false; //!< this access missed (block being placed)
    bool lastMiss = false; //!< previous access to this set missed
    bool isBurst = false;  //!< this access is to the set's MRU block
};

/**
 * The values features select bits from, gathered once per access.
 * Slot kPc + W holds the W-th most recent memory-access PC (W = 0 is
 * the access's own PC); only the depths listed at construction are
 * read from the history. The slots are not zero-filled: the
 * constructor writes every slot a CompiledFeature can read.
 */
struct FeatureSources
{
    enum Slot : unsigned { kBurst, kInsert, kLastMiss, kAddr, kOffset, kPc };
    static constexpr unsigned kSlots =
        kPc + 1 + cache::CoreContext::kPcHistoryDepth;

    std::array<std::uint64_t, kSlots> value;
    std::uint64_t pcMix = 0; //!< fold8(pc >> 2), what X=1 features xor in

    /** Gather @p in, reading the PC history at each depth W in @p depths. */
    FeatureSources(const FeatureInput& in,
                   std::span<const std::uint8_t> depths)
    {
        value[kBurst] = in.isBurst;
        value[kInsert] = in.isInsert;
        value[kLastMiss] = in.lastMiss;
        value[kAddr] = in.addr;
        value[kOffset] = blockOffset(in.addr);
        value[kPc] = in.pc;
        // Without a context (writeback paths), fall back to the access
        // PC; those accesses are not predicted anyway.
        for (const std::uint8_t w : depths)
            value[kPc + w] = in.ctx ? in.ctx->pcHistory.recent(w - 1) : in.pc;
        pcMix = fold8(in.pc >> 2);
    }
};

/**
 * A FeatureSpec decoded once into the masks that index its table, so
 * an access costs a shift, two masks, a fold and an xor per feature.
 * This is the only definition of a feature's index.
 */
class CompiledFeature
{
  public:
    /** Decode @p spec; its table starts at @p weight_offset of a flat
     * weight array. Throws FatalError if W exceeds the PC history. */
    explicit CompiledFeature(const FeatureSpec& spec,
                             std::uint32_t weight_offset = 0);

    /**
     * Index into this feature's table. fold8 only changes pc and
     * address fields (table size 256): every other field is already
     * below its table size, where fold8 is the identity.
     */
    std::uint32_t
    index(const FeatureSources& src) const
    {
        const std::uint64_t v = (src.value[slot_] >> shift_) & mask_;
        return static_cast<std::uint32_t>(
            (fold8(v) ^ (src.pcMix & xorMask_)) & tableMask_);
    }

    std::uint32_t weightOffset() const { return weightOffset_; }
    std::uint32_t tableSize() const { return tableMask_ + 1; }

    /** The history depth W this feature reads, or 0 for none. */
    unsigned
    historyDepth() const
    {
        return slot_ > FeatureSources::kPc ? slot_ - FeatureSources::kPc
                                           : 0;
    }

  private:
    std::uint64_t mask_ = 0;
    std::uint32_t xorMask_;
    std::uint32_t tableMask_;
    std::uint32_t weightOffset_;
    std::uint8_t slot_ = FeatureSources::kBurst;
    std::uint8_t shift_ = 0;
};

/** Compute the feature's table index for one access. */
std::uint32_t featureIndex(const FeatureSpec& spec,
                           const FeatureInput& in);

/** Render a whole feature set, one feature per line. */
std::string formatFeatureSet(const std::vector<FeatureSpec>& set);

/** Copy of @p set with every associativity forced to @p assoc. */
std::vector<FeatureSpec>
withUniformAssociativity(const std::vector<FeatureSpec>& set,
                         unsigned assoc);

/** Copy of @p set with element @p idx removed. */
std::vector<FeatureSpec> without(const std::vector<FeatureSpec>& set,
                                 std::size_t idx);

} // namespace mrp::core

#endif // MRP_CORE_FEATURE_HPP

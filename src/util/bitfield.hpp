/**
 * @file
 * Bit-extraction and bit-folding helpers used by the feature machinery.
 */

#ifndef MRP_UTIL_BITFIELD_HPP
#define MRP_UTIL_BITFIELD_HPP

#include <cstdint>

namespace mrp {

/**
 * Extract bits lo..hi (inclusive, 0-based from LSB) of a value.
 *
 * Bits beyond position 63 read as zero. If lo > hi the arguments are
 * swapped, matching the paper's tolerance for reversed B/E parameters.
 */
constexpr std::uint64_t
bits(std::uint64_t value, unsigned lo, unsigned hi)
{
    if (lo > hi) {
        unsigned t = lo;
        lo = hi;
        hi = t;
    }
    if (lo > 63)
        return 0;
    if (hi > 63)
        hi = 63;
    const unsigned width = hi - lo + 1;
    const std::uint64_t mask =
        width >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
    return (value >> lo) & mask;
}

/**
 * Fold a value down to @p width bits by xor-reducing successive
 * width-sized chunks. Folding to width 0 yields 0.
 */
constexpr std::uint64_t
foldXor(std::uint64_t value, unsigned width)
{
    if (width == 0)
        return 0;
    if (width >= 64)
        return value;
    const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
    std::uint64_t out = 0;
    while (value != 0) {
        out ^= value & mask;
        value >>= width;
    }
    return out;
}

/**
 * foldXor(value, 8) in three shift-xors: the xor of the value's eight
 * bytes. Values below 256 fold to themselves.
 */
constexpr std::uint64_t
fold8(std::uint64_t value)
{
    value ^= value >> 32;
    value ^= value >> 16;
    value ^= value >> 8;
    return value & 0xff;
}

/** Number of bits needed to represent values 0..n-1; log2Ceil(1) == 0. */
constexpr unsigned
log2Ceil(std::uint64_t n)
{
    unsigned w = 0;
    std::uint64_t cap = 1;
    while (cap < n) {
        cap <<= 1;
        ++w;
    }
    return w;
}

/** True if n is a power of two (n > 0). */
constexpr bool
isPowerOfTwo(std::uint64_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

} // namespace mrp

#endif // MRP_UTIL_BITFIELD_HPP

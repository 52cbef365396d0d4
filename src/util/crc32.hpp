/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the checksum
 * guarding trace headers and chunks and checkpoint-journal lines.
 *
 * Two kernels compute it, both in crc32.cpp:
 *  - the table kernel is slicing-by-16: sixteen 256-entry tables,
 *    generated at compile time, fold 16 input bytes per step from four
 *    little-endian 32-bit loads; a bytewise loop over table 0 handles
 *    the tail;
 *  - the fold kernel (x86-64 only) is carry-less-multiply folding after
 *    Gopal et al., "Fast CRC Computation for Generic Polynomials Using
 *    PCLMULQDQ Instruction" (Intel, 2009): PCLMULQDQ folds four 128-bit
 *    lanes per 64 input bytes, folds them down to one, folds any further
 *    16-byte blocks into it and ends in a Barrett reduction. Inputs
 *    shorter than 64 bytes and the last (size mod 16) bytes go to the
 *    table kernel.
 *
 * Crc32::update runs the fold kernel when the CPU reports PCLMULQDQ and
 * SSE4.1 (checked once, from CPUID) and the table kernel otherwise.
 * Both compute exactly the checksum of the classic one-byte-per-step
 * loop, so every file and frame checksummed by either is
 * interchangeable, and checksums are bit-identical across platforms.
 * tests/test_util.cpp runs the bitwise-reference cases over each kernel
 * on its own; the fold cases skip on CPUs without the instructions.
 */

#ifndef MRP_UTIL_CRC32_HPP
#define MRP_UTIL_CRC32_HPP

#include <cstddef>
#include <cstdint>

namespace mrp {

namespace detail {

/**
 * The kernels advance a CRC register (the inverted running checksum,
 * 0xFFFFFFFF before any input) over @p size bytes at @p data.
 */
std::uint32_t crc32Table(std::uint32_t state, const void* data,
                         std::size_t size);

/**
 * Fold kernel; any @p size is accepted. Call it only where
 * crc32FoldAvailable() holds: it executes PCLMULQDQ and SSE4.1.
 */
std::uint32_t crc32Fold(std::uint32_t state, const void* data,
                        std::size_t size);

/** True when this CPU can run crc32Fold (always false off x86-64). */
bool crc32FoldAvailable();

} // namespace detail

/** Incremental CRC-32 accumulator. */
class Crc32
{
  public:
    /** Fold @p size bytes at @p data into the running checksum. */
    void update(const void* data, std::size_t size);

    /** Final checksum of everything updated so far. */
    std::uint32_t value() const { return ~state_; }

    /** One-shot checksum of a buffer. */
    static std::uint32_t
    of(const void* data, std::size_t size)
    {
        Crc32 crc;
        crc.update(data, size);
        return crc.value();
    }

  private:
    std::uint32_t state_ = 0xFFFFFFFFu;
};

} // namespace mrp

#endif // MRP_UTIL_CRC32_HPP

/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the checksum
 * guarding trace headers and chunks and checkpoint-journal lines. Table is
 * generated at compile time; the implementation is self-contained so
 * checksums are bit-identical across platforms.
 */

#ifndef MRP_UTIL_CRC32_HPP
#define MRP_UTIL_CRC32_HPP

#include <array>
#include <cstddef>
#include <cstdint>

namespace mrp {

namespace detail {

constexpr std::array<std::uint32_t, 256>
makeCrc32Table()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table =
    makeCrc32Table();

} // namespace detail

/** Incremental CRC-32 accumulator. */
class Crc32
{
  public:
    /** Fold @p size bytes at @p data into the running checksum. */
    void
    update(const void* data, std::size_t size)
    {
        const auto* p = static_cast<const unsigned char*>(data);
        std::uint32_t c = state_;
        for (std::size_t i = 0; i < size; ++i)
            c = detail::kCrc32Table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
        state_ = c;
    }

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

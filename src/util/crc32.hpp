/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the checksum
 * guarding trace headers and chunks and checkpoint-journal lines.
 *
 * The update loop is slicing-by-16: sixteen 256-entry tables, generated
 * at compile time, fold 16 input bytes per step from four little-endian
 * 32-bit loads; a bytewise loop over table 0 handles the tail. It
 * computes exactly the checksum of the classic one-byte-per-step loop,
 * so every file and frame checksummed with either is interchangeable.
 * The implementation is self-contained and byte-order independent, so
 * checksums are bit-identical across platforms.
 */

#ifndef MRP_UTIL_CRC32_HPP
#define MRP_UTIL_CRC32_HPP

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace mrp {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 16>;

/**
 * Table 0 is the classic bytewise table; table k advances a byte's
 * contribution past k further zero bytes, so one 16-byte step looks up
 * each input byte in the table for its distance from the block's end.
 */
constexpr Crc32Tables
makeCrc32Tables()
{
    Crc32Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}

inline constexpr Crc32Tables kCrc32Tables = makeCrc32Tables();

/** Little-endian 32-bit load from a possibly unaligned address. */
inline std::uint32_t
loadLe32(const unsigned char* p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big)
        v = (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) |
            (v << 24);
    return v;
}

} // namespace detail

/** Incremental CRC-32 accumulator. */
class Crc32
{
  public:
    /** Fold @p size bytes at @p data into the running checksum. */
    void
    update(const void* data, std::size_t size)
    {
        const auto& t = detail::kCrc32Tables;
        const auto* p = static_cast<const unsigned char*>(data);
        std::uint32_t c = state_;
        for (; size >= 16; size -= 16, p += 16) {
            const std::uint32_t w0 = detail::loadLe32(p) ^ c;
            const std::uint32_t w1 = detail::loadLe32(p + 4);
            const std::uint32_t w2 = detail::loadLe32(p + 8);
            const std::uint32_t w3 = detail::loadLe32(p + 12);
            c = t[15][w0 & 0xFFu] ^ t[14][(w0 >> 8) & 0xFFu] ^
                t[13][(w0 >> 16) & 0xFFu] ^ t[12][w0 >> 24] ^
                t[11][w1 & 0xFFu] ^ t[10][(w1 >> 8) & 0xFFu] ^
                t[9][(w1 >> 16) & 0xFFu] ^ t[8][w1 >> 24] ^
                t[7][w2 & 0xFFu] ^ t[6][(w2 >> 8) & 0xFFu] ^
                t[5][(w2 >> 16) & 0xFFu] ^ t[4][w2 >> 24] ^
                t[3][w3 & 0xFFu] ^ t[2][(w3 >> 8) & 0xFFu] ^
                t[1][(w3 >> 16) & 0xFFu] ^ t[0][w3 >> 24];
        }
        for (; size > 0; --size, ++p)
            c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
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

/**
 * @file
 * The two CRC-32 kernels and the run-time choice between them; see
 * crc32.hpp.
 */

#include "util/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace mrp {
namespace detail {
namespace {

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

constexpr Crc32Tables kCrc32Tables = makeCrc32Tables();

/** Little-endian 32-bit load from a possibly unaligned address. */
std::uint32_t
loadLe32(const unsigned char* p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big)
        v = (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) |
            (v << 24);
    return v;
}

} // namespace

std::uint32_t
crc32Table(std::uint32_t state, const void* data, std::size_t size)
{
    const auto& t = kCrc32Tables;
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint32_t c = state;
    for (; size >= 16; size -= 16, p += 16) {
        const std::uint32_t w0 = loadLe32(p) ^ c;
        const std::uint32_t w1 = loadLe32(p + 4);
        const std::uint32_t w2 = loadLe32(p + 8);
        const std::uint32_t w3 = loadLe32(p + 12);
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
    return c;
}

#if defined(__x86_64__)

namespace {

/** Shortest input the fold kernel folds: its four starting lanes. */
constexpr std::size_t kFoldMinBytes = 64;

/**
 * The paper's bit-reflected constants for the IEEE polynomial. Each
 * pair multiplies a lane's low and high 64-bit halves to move the lane
 * forward: k1, k2 by 512 bits (one 64-byte step of four lanes), k3, k4
 * by 128 bits (one lane onto the next). k5 folds 96 bits to 64, and
 * kMu and kPoly (P') drive the Barrett reduction to 32 bits.
 */
constexpr std::uint64_t kK1 = 0x0154442BD4, kK2 = 0x01C6E41596;
constexpr std::uint64_t kK3 = 0x01751997D0, kK4 = 0x00CCAA009E;
constexpr std::uint64_t kK5 = 0x0163CD6124;
constexpr std::uint64_t kPoly = 0x01DB710641, kMu = 0x01F7011641;

/** @p acc carried forward by the distance @p k encodes, plus @p next. */
__attribute__((target("pclmul,sse4.1"))) inline __m128i
fold(__m128i acc, __m128i k, __m128i next)
{
    const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
    const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

__attribute__((target("pclmul,sse4.1"))) inline __m128i
load128(const unsigned char* p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

} // namespace

__attribute__((target("pclmul,sse4.1"))) std::uint32_t
crc32Fold(std::uint32_t state, const void* data, std::size_t size)
{
    const auto* p = static_cast<const unsigned char*>(data);
    if (size < kFoldMinBytes)
        return crc32Table(state, p, size);
    // The fold covers whole 16-byte blocks; the table takes the rest.
    const std::size_t tail = size % 16;
    std::size_t n = size - tail;

    __m128i x1 = _mm_xor_si128(load128(p),
                               _mm_cvtsi32_si128(static_cast<int>(state)));
    __m128i x2 = load128(p + 16);
    __m128i x3 = load128(p + 32);
    __m128i x4 = load128(p + 48);
    p += 64;
    n -= 64;

    const __m128i k1k2 = _mm_set_epi64x(kK2, kK1);
    for (; n >= 64; n -= 64, p += 64) {
        x1 = fold(x1, k1k2, load128(p));
        x2 = fold(x2, k1k2, load128(p + 16));
        x3 = fold(x3, k1k2, load128(p + 32));
        x4 = fold(x4, k1k2, load128(p + 48));
    }

    const __m128i k3k4 = _mm_set_epi64x(kK4, kK3);
    x1 = fold(x1, k3k4, x2);
    x1 = fold(x1, k3k4, x3);
    x1 = fold(x1, k3k4, x4);
    for (; n >= 16; n -= 16, p += 16)
        x1 = fold(x1, k3k4, load128(p));

    // 128 bits to 64: the low half carried past the high one by k4,
    // then the low 32 bits of that past the rest by k5.
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
    x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k3k4, 0x10),
                       _mm_srli_si128(x1, 8));
    const __m128i k5 = _mm_set_epi64x(0, kK5);
    x1 = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
        _mm_srli_si128(x1, 4));

    // Barrett reduction of the 64-bit remainder to the 32-bit CRC.
    const __m128i poly = _mm_set_epi64x(kMu, kPoly);
    __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
    q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
    x1 = _mm_xor_si128(x1, q);
    const auto folded = static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));

    return crc32Table(folded, p, tail);
}

bool
crc32FoldAvailable()
{
    static const bool available = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") &&
               __builtin_cpu_supports("sse4.1");
    }();
    return available;
}

#else // !__x86_64__

std::uint32_t
crc32Fold(std::uint32_t state, const void* data, std::size_t size)
{
    return crc32Table(state, data, size);
}

bool
crc32FoldAvailable()
{
    return false;
}

#endif

} // namespace detail

void
Crc32::update(const void* data, std::size_t size)
{
    state_ = detail::crc32FoldAvailable()
                 ? detail::crc32Fold(state_, data, size)
                 : detail::crc32Table(state_, data, size);
}

} // namespace mrp

/**
 * @file
 * On-disk layout constants of trace format v4, the single source of
 * truth for its encoder and decoder (stream_reader.cpp; the layout is
 * documented in trace/stream_reader.hpp). Internal to the trace
 * library; not installed for consumers.
 *
 * The fixed header is magic "MRPT", u32 version, u64 instruction count,
 * u64 record count, u32 name length. The name is padded so that the
 * header CRC-32 which seals it ends on an 8-byte boundary, and the
 * chunks follow, each one Trace block (trace/trace.hpp):
 *
 *   u32 record count | u32 PC-table length | u32 CRC-32 | u32 zero |
 *   u64 instructions | PC table (u64 each) | words (u64 each)
 *
 * The chunk CRC covers the chunk's index in the file as a u64, every
 * header field but the CRC itself, the table and the words.
 */

#ifndef MRP_TRACE_WIRE_FORMAT_HPP
#define MRP_TRACE_WIRE_FORMAT_HPP

#include <cstdint>

namespace mrp::trace::wire {

inline constexpr char kMagic[4] = {'M', 'R', 'P', 'T'};

inline constexpr std::uint32_t kVersion = 4;

/** Fixed header: magic, version, instructions, records, name length. */
inline constexpr std::uint64_t kFixedBytes = 28;

/** Per-chunk header: u32 count, u32 table length, u32 CRC, u32 zero,
 * u64 instructions. */
inline constexpr std::uint64_t kChunkHeaderBytes = 24;

inline constexpr std::uint32_t kMaxNameLen = 4096;

/** Zero padding after the name so that the header CRC that follows
 * ends on an 8-byte boundary (chunk headers, tables and words then
 * stay 8-byte aligned, in a file and in its mapping). */
inline constexpr std::uint64_t
namePad(std::uint64_t name_len)
{
    return (8 - ((kFixedBytes + name_len + 4) % 8)) % 8;
}

/** Offset of the first chunk. */
inline constexpr std::uint64_t
payloadStart(std::uint64_t name_len)
{
    return kFixedBytes + name_len + namePad(name_len) + 4;
}

} // namespace mrp::trace::wire

#endif // MRP_TRACE_WIRE_FORMAT_HPP

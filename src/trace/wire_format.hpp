/**
 * @file
 * On-disk layout constants of trace format v3, the single source of
 * truth for its encoder and decoder (stream_reader.cpp; the layout is
 * documented in trace/stream_reader.hpp). Internal to the trace
 * library; not installed for consumers.
 *
 * The fixed header is magic "MRPT", u32 version, u64 instruction count,
 * u64 record count, u32 name length, u32 chunk capacity. The name is
 * padded so the payload starts 16-byte aligned (records can be mmapped
 * in place), the header is sealed with its own CRC-32, and the records
 * follow as independently-decodable chunks:
 *
 *   u32 record count | u32 CRC-32 | u64 instructions | records...
 *
 * The chunk CRC covers the record count, the instruction count, and
 * the record bytes (everything but the CRC field itself).
 */

#ifndef MRP_TRACE_WIRE_FORMAT_HPP
#define MRP_TRACE_WIRE_FORMAT_HPP

#include <cstdint>

namespace mrp::trace::wire {

inline constexpr char kMagic[4] = {'M', 'R', 'P', 'T'};

/** Fixed header: magic, version, instructions, records, name length,
 * chunk capacity. */
inline constexpr std::uint64_t kV3FixedBytes = 32;

/** Per-chunk header: u32 count, u32 CRC, u64 instructions. */
inline constexpr std::uint64_t kChunkHeaderBytes = 16;

inline constexpr std::uint32_t kMaxNameLen = 4096;

/** Upper bound on records per chunk (64 MiB of records) — rejects
 * corrupt capacity fields before they size a buffer. */
inline constexpr std::uint32_t kMaxChunkRecords = 1u << 22;

/** Zero padding after the name so that the header CRC that follows
 * ends on a 16-byte boundary (chunk headers and records then stay
 * 16-byte aligned for mmap). */
inline constexpr std::uint64_t
v3NamePad(std::uint64_t name_len)
{
    return (16 - ((kV3FixedBytes + name_len + 4) % 16)) % 16;
}

/** Offset of the first chunk. */
inline constexpr std::uint64_t
v3PayloadStart(std::uint64_t name_len)
{
    return kV3FixedBytes + name_len + v3NamePad(name_len) + 4;
}

} // namespace mrp::trace::wire

#endif // MRP_TRACE_WIRE_FORMAT_HPP

/**
 * @file
 * The instruction-trace record format.
 *
 * A trace is a sequence of records. Memory records carry a PC and a
 * 48-bit byte address; runs of non-memory instructions are compressed
 * into a single record carrying a repeat count, since they only matter
 * to the timing model.
 */

#ifndef MRP_TRACE_RECORD_HPP
#define MRP_TRACE_RECORD_HPP

#include <cstdint>

#include "util/logging.hpp"
#include "util/types.hpp"

namespace mrp::trace {

class Trace;

/** Kind of a trace record. */
enum class Op : std::uint8_t {
    Load = 0,    //!< memory read
    Store = 1,   //!< memory write
    NonMem = 2,  //!< run of non-memory instructions (count in payload)
};

/**
 * One trace record, packed into 16 bytes. Memory records may be marked
 * dependent on the most recent preceding load, which serializes them in
 * the timing model (pointer chasing).
 */
class Record
{
  public:
    Record() : pc_(0), packed_(0) {}

    /** Build a load or store record. */
    static Record
    memOp(Pc pc, Op op, Addr addr, bool depends_on_prev_load = false)
    {
        panicIf(op == Op::NonMem, "memOp with non-memory opcode");
        Record r;
        r.pc_ = pc;
        r.packed_ = (addr & kAddrMask) |
                    (static_cast<std::uint64_t>(op) << kOpShift) |
                    (depends_on_prev_load ? kDepBit : 0);
        return r;
    }

    /** Build a compressed run of @p count non-memory instructions. */
    static Record
    nonMem(Pc pc, std::uint32_t count)
    {
        panicIf(count == 0, "empty non-memory run");
        Record r;
        r.pc_ = pc;
        r.packed_ = (static_cast<std::uint64_t>(count) & kAddrMask) |
                    (static_cast<std::uint64_t>(Op::NonMem) << kOpShift);
        return r;
    }

    Pc pc() const { return pc_; }

    Op
    op() const
    {
        return static_cast<Op>((packed_ >> kOpShift) & 0x3);
    }

    bool isMem() const { return op() != Op::NonMem; }

    /** Byte address of a memory record. */
    Addr
    addr() const
    {
        panicIf(!isMem(), "addr() on non-memory record");
        return packed_ & kAddrMask;
    }

    /** Instruction count covered by this record. */
    std::uint32_t
    count() const
    {
        return isMem() ? 1
                       : static_cast<std::uint32_t>(packed_ & kAddrMask);
    }

    /** True if this memory op must wait for the previous load's data. */
    bool dependsOnPrevLoad() const { return (packed_ & kDepBit) != 0; }

  private:
    friend class Trace; //!< stores packed_ and the PC apart

    static constexpr std::uint64_t kAddrMask = (1ull << 48) - 1;
    static constexpr unsigned kOpShift = 48;
    static constexpr std::uint64_t kDepBit = 1ull << 50;
    /** packed_ uses bits 0..kPackedBits-1; the rest are always zero. */
    static constexpr unsigned kPackedBits = 51;

    Pc pc_;
    std::uint64_t packed_;
};

} // namespace mrp::trace

#endif // MRP_TRACE_RECORD_HPP

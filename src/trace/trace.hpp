/**
 * @file
 * An in-memory instruction trace with identity metadata, stored in
 * 8 bytes per record.
 *
 * Storage layout: one 64-bit word per record holds the record's packed
 * op/address-or-count/dep bits (bits 0-50, exactly as in Record) and,
 * in bits 51-62, a PC slot. Records are grouped in blocks of
 * kBlockRecords; a slot indexes its block's own table of distinct PCs.
 * A block of 4096 records has at most 4096 distinct PCs, so 12 slot
 * bits always suffice and the encoding is lossless for any trace.
 * Records are decoded back to 16-byte Record values on read.
 */

#ifndef MRP_TRACE_TRACE_HPP
#define MRP_TRACE_TRACE_HPP

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "trace/record.hpp"
#include "util/logging.hpp"
#include "util/types.hpp"

namespace mrp::trace {

/**
 * A named, immutable sequence of trace records standing in for one
 * benchmark simpoint.
 */
class Trace
{
    static constexpr unsigned kBlockBits = 12;

    struct Store
    {
        std::vector<std::uint64_t> words; //!< one per record
        std::vector<Pc> pcs;              //!< every block's PC table
        std::vector<std::size_t> tables;  //!< each block's table in pcs
    };

  public:
    /** Records per block; each block has its own PC table. */
    static constexpr std::size_t kBlockRecords = std::size_t{1}
                                                 << kBlockBits;

    /**
     * Read-only random-access view of the records, decoding each on
     * access. Valid while the Trace lives (moving the Trace keeps it
     * valid).
     */
    class Records
    {
      public:
        class iterator;

        Records() = default;

        std::size_t size() const { return size_; }

        Record
        operator[](std::size_t i) const
        {
            const std::uint64_t w = words_[i];
            const Pc* table = pcs_ + tables_[i >> kBlockBits];
            return unpack(table[w >> kSlotShift], w);
        }

        iterator begin() const;
        iterator end() const;

        /** Decode records [@p first, @p first + out.size()) into @p out. */
        void decode(std::size_t first, std::span<Record> out) const;

      private:
        friend class Trace;
        explicit Records(const Store& s)
            : words_(s.words.data()), pcs_(s.pcs.data()),
              tables_(s.tables.data()), size_(s.words.size())
        {
        }

        const std::uint64_t* words_ = nullptr;
        const Pc* pcs_ = nullptr;
        const std::size_t* tables_ = nullptr;
        std::size_t size_ = 0;
    };

    /**
     * Appends records straight into the compact store and seals them
     * into a Trace. Used by TraceBuilder, materialize() and the
     * encoding constructor.
     */
    class Encoder
    {
      public:
        Encoder();

        /** Append one record. Throws CorruptInput for a record whose
         * reserved bits are set (possible only from raw file bytes). */
        void
        append(const Record& r)
        {
            if ((store_.words.size() & (kBlockRecords - 1)) == 0)
                startBlock();
            store_.words.push_back(pack(r, slotOf(r.pc())));
            instructions_ += r.count();
        }

        void
        append(std::span<const Record> records)
        {
            for (const Record& r : records)
                append(r);
        }

        /** Sum of count() over the records appended so far. */
        InstCount instructions() const { return instructions_; }

        /**
         * Seal into a Trace. Throws CorruptInput unless the records'
         * counts sum to @p instructions.
         */
        Trace finish(std::string name, InstCount instructions) &&;

      private:
        static constexpr unsigned kHashBits = kBlockBits + 1;

        void startBlock();
        std::uint64_t slotOf(Pc pc);

        Store store_;
        InstCount instructions_ = 0;
        /** Open-addressed PC -> slot + 1 of the current block (0 = empty). */
        std::vector<std::uint16_t> slots_;
    };

    /**
     * Encode @p records. Throws CorruptInput unless their counts sum
     * to @p instructions.
     */
    Trace(std::string name, const std::vector<Record>& records,
          InstCount instructions);

    const std::string& name() const { return name_; }
    Records records() const { return Records(store_); }

    /** Total instructions represented (expanding non-memory runs). */
    InstCount instructions() const { return instructions_; }

    /** Number of memory operations in the trace. */
    InstCount memOps() const;

  private:
    static constexpr unsigned kSlotShift = Record::kPackedBits;
    static constexpr std::uint64_t kPackedMask =
        (std::uint64_t{1} << kSlotShift) - 1;

    Trace(std::string name, Store store, InstCount instructions);

    static std::uint64_t
    pack(const Record& r, std::uint64_t slot)
    {
        fatalIf((r.packed_ >> kSlotShift) != 0, ErrorCode::CorruptInput,
                "trace record has reserved bits set");
        return r.packed_ | (slot << kSlotShift);
    }

    static Record
    unpack(Pc pc, std::uint64_t word)
    {
        Record r;
        r.pc_ = pc;
        r.packed_ = word & kPackedMask;
        return r;
    }

    std::string name_;
    Store store_;
    InstCount instructions_;
};

/** Forward iterator over Trace::Records, yielding records by value. */
class Trace::Records::iterator
{
  public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = Record;
    using reference = Record;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    iterator(Records view, std::size_t i) : view_(view), i_(i) {}

    Record operator*() const { return view_[i_]; }
    iterator&
    operator++()
    {
        ++i_;
        return *this;
    }
    iterator
    operator++(int)
    {
        iterator old = *this;
        ++i_;
        return old;
    }
    bool operator==(const iterator& o) const { return i_ == o.i_; }

  private:
    Records view_;
    std::size_t i_ = 0;
};

inline Trace::Records::iterator
Trace::Records::begin() const
{
    return {*this, 0};
}

inline Trace::Records::iterator
Trace::Records::end() const
{
    return {*this, size_};
}

} // namespace mrp::trace

#endif // MRP_TRACE_TRACE_HPP

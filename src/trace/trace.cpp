#include "trace/trace.hpp"

#include <algorithm>
#include <utility>

namespace mrp::trace {

template <bool Checked>
Trace::BlockCheck
Trace::decodeBlock(Block block, Record* out)
{
    const Pc* table = block.pcs.data();
    if constexpr (!Checked) {
        for (std::size_t k = 0; k < block.words.size(); ++k) {
            const std::uint64_t w = block.words[k];
            out[k] = unpack(table[w >> kSlotShift], w);
        }
        return {};
    }
    panicIf(block.pcs.empty(), "Trace::decodeBlock with an empty table");
    const std::uint64_t last = block.pcs.size() - 1;
    // Bits 51-63 as one number: a slot, plus 4096 if the reserved bit
    // is set. Its maximum over the block answers both checks.
    std::uint64_t max_slot = 0;
    InstCount instructions = 0;
    for (std::size_t k = 0; k < block.words.size(); ++k) {
        const std::uint64_t w = block.words[k];
        const std::uint64_t slot = w >> kSlotShift;
        max_slot = std::max(max_slot, slot);
        out[k] = unpack(table[std::min(slot, last)], w);
        instructions += out[k].count();
    }
    return {max_slot > last, max_slot > kSlotMask, instructions};
}

template Trace::BlockCheck Trace::decodeBlock<true>(Block, Record*);
template Trace::BlockCheck Trace::decodeBlock<false>(Block, Record*);

InstCount
Trace::instructionsOf(std::span<const std::uint64_t> words)
{
    InstCount n = 0;
    for (const std::uint64_t w : words)
        n += unpack(0, w).count();
    return n;
}

Trace::Block
Trace::blockOf(const Store& s, std::size_t i)
{
    const std::size_t first = i << kBlockBits;
    const std::size_t table = s.tables[i];
    const std::size_t table_end =
        i + 1 < s.tables.size() ? s.tables[i + 1] : s.pcs.size();
    return {{s.pcs.data() + table, table_end - table},
            {s.words.data() + first,
             std::min(kBlockRecords, s.words.size() - first)}};
}

Trace::Block
Trace::block(std::size_t i) const
{
    panicIf(i >= blockCount(), "Trace::block past the end");
    return blockOf(store_, i);
}

void
Trace::Records::decode(std::size_t first, std::span<Record> out) const
{
    panicIf(first > size_ || out.size() > size_ - first,
            "Trace::Records::decode past the end");
    // One block's PC table at a time.
    std::size_t done = 0;
    while (done < out.size()) {
        const std::size_t at = first + done;
        const std::size_t block = at >> kBlockBits;
        const std::size_t n = std::min(out.size() - done,
                                       ((block + 1) << kBlockBits) - at);
        const std::size_t table = tables_[block];
        const std::size_t table_end =
            block + 1 < blocks_ ? tables_[block + 1] : pcCount_;
        decodeBlock<false>(
            {{pcs_ + table, table_end - table}, {words_ + at, n}},
            out.data() + done);
        done += n;
    }
}

Trace::Encoder::Encoder() : slots_(std::size_t{1} << kHashBits, 0) {}

void
Trace::Encoder::startBlock()
{
    store_.tables.push_back(store_.pcs.size());
    std::fill(slots_.begin(), slots_.end(), 0);
}

std::uint64_t
Trace::Encoder::slotOf(Pc pc)
{
    constexpr std::size_t mask = (std::size_t{1} << kHashBits) - 1;
    const std::size_t table = store_.tables.back();
    // Fibonacci hashing; the table is at most half full (a block has
    // at most kBlockRecords distinct PCs), so probes stay short.
    for (std::size_t h = (pc * 0x9E3779B97F4A7C15ull) >> (64 - kHashBits);;
         h = (h + 1) & mask) {
        const std::uint16_t e = slots_[h];
        if (e == 0) {
            const std::size_t slot = store_.pcs.size() - table;
            store_.pcs.push_back(pc);
            slots_[h] = static_cast<std::uint16_t>(slot + 1);
            return slot;
        }
        if (store_.pcs[table + e - 1] == pc)
            return e - 1;
    }
}

void
Trace::Encoder::appendBlock(Block block)
{
    panicIf((store_.words.size() & (kBlockRecords - 1)) != 0 ||
                block.words.size() > kBlockRecords,
            "Trace::Encoder::appendBlock off a block boundary");
    // Re-entering the table's PCs in slot order rebuilds the same
    // table and the hash that later append() calls look PCs up in.
    startBlock();
    for (const Pc pc : block.pcs)
        (void)slotOf(pc);
    panicIf(store_.pcs.size() - store_.tables.back() != block.pcs.size(),
            "Trace::Encoder::appendBlock: a PC repeats in the table");
    store_.words.insert(store_.words.end(), block.words.begin(),
                        block.words.end());
    instructions_ += instructionsOf(block.words);
}

Trace::Block
Trace::Encoder::lastBlock() const
{
    if (store_.tables.empty())
        return {};
    return blockOf(store_, store_.tables.size() - 1);
}

void
Trace::Encoder::clear()
{
    store_.words.clear();
    store_.pcs.clear();
    store_.tables.clear();
    instructions_ = 0;
}

Trace
Trace::Encoder::finish(std::string name, InstCount instructions) &&
{
    fatalIf(instructions_ != instructions, ErrorCode::CorruptInput,
            "trace '" + name + "': records sum to " +
                std::to_string(instructions_) + " instructions, not " +
                std::to_string(instructions));
    return Trace(std::move(name), std::move(store_), instructions);
}

Trace::Trace(std::string name, Store store, InstCount instructions)
    : name_(std::move(name)), store_(std::move(store)),
      instructions_(instructions)
{
}

namespace {

Trace
encode(std::string name, const std::vector<Record>& records,
       InstCount instructions)
{
    Trace::Encoder enc;
    enc.append(records);
    return std::move(enc).finish(std::move(name), instructions);
}

} // namespace

Trace::Trace(std::string name, const std::vector<Record>& records,
             InstCount instructions)
    : Trace(encode(std::move(name), records, instructions))
{
}

InstCount
Trace::memOps() const
{
    InstCount n = 0;
    for (const std::uint64_t w : store_.words)
        n += unpack(0, w).isMem() ? 1 : 0;
    return n;
}

} // namespace mrp::trace

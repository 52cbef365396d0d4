#include "trace/trace.hpp"

#include <algorithm>
#include <utility>

namespace mrp::trace {

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
        const Pc* table = pcs_ + tables_[block];
        const std::uint64_t* w = words_ + at;
        Record* dst = out.data() + done;
        for (std::size_t k = 0; k < n; ++k)
            dst[k] = unpack(table[w[k] >> kSlotShift], w[k]);
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

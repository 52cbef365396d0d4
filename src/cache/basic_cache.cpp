#include "cache/basic_cache.hpp"

namespace mrp::cache {

BasicCache::BasicCache(std::string name, Addr bytes, std::uint32_t ways)
    : name_(std::move(name)), geom_(bytes, ways),
      tags_(static_cast<std::size_t>(geom_.sets()) * geom_.ways(),
            kInvalidTag),
      stamps_(tags_.size(), 0), dirty_(tags_.size(), 0)
{
}

bool
BasicCache::touch(Addr addr)
{
    const std::size_t i = find(addr);
    if (i == kAbsent)
        return false;
    stamps_[i] = ++useClock_;
    return true;
}

VictimBlock
BasicCache::fill(Addr addr, bool dirty)
{
    const std::uint32_t set = geom_.setIndex(addr);
    const std::size_t base = static_cast<std::size_t>(set) * geom_.ways();

    // Invalid ways have stamp 0 and valid ones at least 1, so the first
    // minimum is the first free way, else the least recently used. The
    // running minimum stays in a register (strict < keeps the first).
    const std::uint64_t* stamps = &stamps_[base];
    std::uint32_t way = 0;
    std::uint64_t oldest = stamps[0];
    for (std::uint32_t w = 1; w < geom_.ways(); ++w) {
        if (stamps[w] < oldest) {
            oldest = stamps[w];
            way = w;
        }
    }
    const std::size_t i = base + way;

    VictimBlock victim;
    if (tags_[i] != kInvalidTag) {
        victim.valid = true;
        victim.blockAddress = geom_.blockAddrOf(set, tags_[i]);
        victim.dirty = dirty_[i] != 0;
        ++stats_.evictions;
        if (victim.dirty)
            ++stats_.dirtyEvictions;
    }

    tags_[i] = geom_.tag(addr);
    dirty_[i] = dirty ? 1 : 0;
    stamps_[i] = ++useClock_;
    return victim;
}

bool
BasicCache::markDirty(Addr addr)
{
    const std::size_t i = find(addr);
    if (i == kAbsent)
        return false;
    dirty_[i] = 1;
    return true;
}

VictimBlock
BasicCache::invalidate(Addr addr)
{
    VictimBlock out;
    const std::size_t i = find(addr);
    if (i != kAbsent) {
        out.valid = true;
        out.blockAddress = blockAddr(addr) << kBlockShift;
        out.dirty = dirty_[i] != 0;
        tags_[i] = kInvalidTag;
        stamps_[i] = 0;
        dirty_[i] = 0;
    }
    return out;
}

} // namespace mrp::cache

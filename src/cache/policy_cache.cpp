#include "cache/policy_cache.hpp"

#include "util/logging.hpp"

namespace mrp::cache {

PolicyCache::PolicyCache(Addr bytes, std::uint32_t ways,
                         std::unique_ptr<LlcPolicy> policy, unsigned cores)
    : geom_(bytes, ways), policy_(std::move(policy)),
      tags_(static_cast<std::size_t>(geom_.sets()) * geom_.ways(),
            kInvalidTag),
      owners_(tags_.size(), 0), dirty_(tags_.size(), 0),
      demandMissesPerCore_(cores, 0)
{
    fatalIf(!policy_, "PolicyCache requires a policy");
    fatalIf(cores == 0, "PolicyCache requires at least one core");
    fatalIf(ways > kMaxWays, "PolicyCache supports at most " +
                                 std::to_string(kMaxWays) +
                                 " ways, got " + std::to_string(ways));
}

int
PolicyCache::findWay(std::size_t base, std::uint64_t tag,
                     std::uint32_t owner) const
{
    const std::uint64_t* tags = &tags_[base];
    for (std::uint32_t w = 0; w < geom_.ways(); ++w)
        if (tags[w] == tag && owners_[base + w] == owner)
            return static_cast<int>(w);
    return -1;
}

LlcResult
PolicyCache::access(const AccessInfo& info)
{
    const std::uint32_t set = geom_.setIndex(info.addr);
    const std::size_t base = static_cast<std::size_t>(set) * geom_.ways();
    const std::uint64_t tag = geom_.tag(info.addr);
    const std::uint32_t owner = policy_->tenantOf(info);

    switch (info.type) {
      case AccessType::Load:
      case AccessType::Store:
        ++stats_.demandAccesses;
        break;
      case AccessType::Prefetch:
        ++stats_.prefetchAccesses;
        break;
      case AccessType::Writeback:
        ++stats_.writebackAccesses;
        break;
    }

    LlcResult result;
    const int hit_way = findWay(base, tag, owner);
    if (hit_way >= 0) {
        result.hit = true;
        if (info.type == AccessType::Writeback)
            dirty_[base + static_cast<std::uint32_t>(hit_way)] = 1;
        switch (info.type) {
          case AccessType::Load:
          case AccessType::Store:
            ++stats_.demandHits;
            break;
          case AccessType::Prefetch:
            ++stats_.prefetchHits;
            break;
          case AccessType::Writeback:
            ++stats_.writebackHits;
            break;
        }
        policy_->onHit(info, set, static_cast<std::uint32_t>(hit_way));
        for (LlcObserver* o : observers_)
            o->onAccess(info, true, set, hit_way);
        return result;
    }

    // Miss path.
    switch (info.type) {
      case AccessType::Load:
      case AccessType::Store:
        ++stats_.demandMisses;
        if (info.core < demandMissesPerCore_.size())
            ++demandMissesPerCore_[info.core];
        break;
      case AccessType::Prefetch:
        ++stats_.prefetchMisses;
        break;
      case AccessType::Writeback:
        ++stats_.writebackMisses;
        break;
    }
    policy_->onMiss(info, set);
    for (LlcObserver* o : observers_)
        o->onAccess(info, false, set, -1);

    // The fill may be confined to a partition; zero means the whole
    // set is available.
    const WayMask fill_mask = policy_->fillWays(info, set);
    const WayMask allowed =
        fill_mask != 0 ? fill_mask : fullWayMask(geom_.ways());

    // Find an invalid allowed way first: bypassing when a way is free
    // would waste capacity, so the policy is only consulted for full
    // (within the partition) sets.
    std::uint32_t fill_way = geom_.ways();
    for (std::uint32_t w = 0; w < geom_.ways(); ++w) {
        if ((allowed >> w & 1) != 0 && tags_[base + w] == kInvalidTag) {
            fill_way = w;
            break;
        }
    }
    if (fill_way == geom_.ways()) {
        if (policy_->shouldBypass(info, set)) {
            ++stats_.bypasses;
            result.bypassed = true;
            for (LlcObserver* o : observers_)
                o->onBypass(info, set);
            return result;
        }
        fill_way = fill_mask != 0
                       ? policy_->victimWayIn(info, set, fill_mask)
                       : policy_->victimWay(info, set);
        panicIf(fill_way >= geom_.ways() ||
                    (allowed >> fill_way & 1) == 0,
                "policy returned a victim way outside the fill mask");
        result.victim.valid = true;
        result.victim.blockAddress =
            geom_.blockAddrOf(set, tags_[base + fill_way]);
        result.victim.dirty = dirty_[base + fill_way] != 0;
        ++stats_.evictions;
        if (result.victim.dirty)
            ++stats_.dirtyEvictions;
        policy_->onEvict(set, fill_way);
        for (LlcObserver* o : observers_)
            o->onEvict(set, fill_way, result.victim.blockAddress);
    }

    tags_[base + fill_way] = tag;
    owners_[base + fill_way] = owner;
    dirty_[base + fill_way] = info.type == AccessType::Writeback ? 1 : 0;
    ++stats_.fills;
    policy_->onFill(info, set, fill_way);
    for (LlcObserver* o : observers_)
        o->onFill(info, set, fill_way);
    return result;
}

bool
PolicyCache::contains(Addr addr) const
{
    // Presence check is owner-agnostic: any tenant's copy counts.
    const std::uint64_t tag = geom_.tag(addr);
    const std::uint64_t* tags =
        &tags_[static_cast<std::size_t>(geom_.setIndex(addr)) *
               geom_.ways()];
    for (std::uint32_t w = 0; w < geom_.ways(); ++w)
        if (tags[w] == tag)
            return true;
    return false;
}

std::uint64_t
PolicyCache::ownerBlockCount(std::uint32_t owner) const
{
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < tags_.size(); ++i)
        if (tags_[i] != kInvalidTag && owners_[i] == owner)
            ++n;
    return n;
}

std::uint64_t
PolicyCache::demandMissesOf(CoreId core) const
{
    fatalIf(core >= demandMissesPerCore_.size(),
            "core id out of range in demandMissesOf");
    return demandMissesPerCore_[core];
}

void
PolicyCache::resetStats()
{
    stats_.reset();
    for (auto& c : demandMissesPerCore_)
        c = 0;
}

} // namespace mrp::cache

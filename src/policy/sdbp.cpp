#include "policy/sdbp.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace mrp::policy {

SdbpPredictor::SdbpPredictor(const cache::CacheGeometry& llc_geom,
                             unsigned cores, const SdbpConfig& cfg)
    : cfg_(cfg),
      sampling_(llc_geom.sets(),
                std::min(cfg.sampledSetsPerCore * cores,
                         llc_geom.sets())),
      samplerSets_(sampling_.sampledSets())
{
    for (auto& s : samplerSets_)
        s.resize(cfg_.samplerAssoc);
    tables_.resize(cfg_.tables);
    for (auto& t : tables_)
        t.assign(cfg_.tableEntries, SatCounter(cfg_.counterBits, 0));
}

int
SdbpPredictor::maxConfidence() const
{
    return static_cast<int>(cfg_.tables *
                            ((1u << cfg_.counterBits) - 1));
}

int
SdbpPredictor::predict(Pc pc) const
{
    int sum = 0;
    for (unsigned i = 0; i < cfg_.tables; ++i)
        sum += static_cast<int>(
            tables_[i][skewedHash(pc, i) % cfg_.tableEntries].value());
    return sum;
}

void
SdbpPredictor::train(Pc pc, bool dead)
{
    for (unsigned i = 0; i < cfg_.tables; ++i) {
        SatCounter& c = tables_[i][skewedHash(pc, i) % cfg_.tableEntries];
        if (dead)
            c.increment();
        else
            c.decrement();
    }
}

int
SdbpPredictor::observe(const cache::AccessInfo& info, std::uint32_t set,
                       bool hit)
{
    (void)hit;
    if (info.type == cache::AccessType::Writeback)
        return 0;

    if (sampling_.sampled(set)) {
        auto& sset = samplerSets_[sampling_.samplerSetOf(set)];
        const std::uint16_t tag = SetSampling::partialTag(info.addr);
        // Linear search in MRU-first order.
        std::size_t pos = sset.size();
        for (std::size_t i = 0; i < sset.size(); ++i) {
            if (sset[i].valid && sset[i].tag == tag) {
                pos = i;
                break;
            }
        }
        if (pos < sset.size()) {
            // Sampler hit: the previous toucher was not a last touch.
            train(sset[pos].lastPc, /*dead=*/false);
            Entry e = sset[pos];
            e.lastPc = info.pc;
            sset.erase(sset.begin() + static_cast<long>(pos));
            sset.insert(sset.begin(), e);
        } else {
            // Sampler miss: evict the LRU entry; its last toucher was
            // a last touch.
            const Entry& victim = sset.back();
            if (victim.valid)
                train(victim.lastPc, /*dead=*/true);
            sset.pop_back();
            Entry e;
            e.valid = true;
            e.tag = tag;
            e.lastPc = info.pc;
            sset.insert(sset.begin(), e);
        }
    }
    return predict(info.pc);
}

SdbpPolicy::SdbpPolicy(const cache::CacheGeometry& geom, unsigned cores,
                       const SdbpConfig& cfg)
    : predictor_(geom, cores, cfg), lru_(geom), ways_(geom.ways()),
      deadBit_(static_cast<std::size_t>(geom.sets()) * geom.ways(), 0)
{
}

void
SdbpPolicy::onHit(const cache::AccessInfo& info, std::uint32_t set,
                  std::uint32_t way)
{
    if (info.type == cache::AccessType::Writeback)
        return;
    const int conf = predictor_.observe(info, set, true);
    deadBit_[static_cast<std::size_t>(set) * ways_ + way] =
        predictor_.isDead(conf) ? 1 : 0;
    lru_.onHit(info, set, way);
}

void
SdbpPolicy::onMiss(const cache::AccessInfo& info, std::uint32_t set)
{
    if (info.type == cache::AccessType::Writeback) {
        lastConfidence_ = 0;
        return;
    }
    lastConfidence_ = predictor_.observe(info, set, false);
}

bool
SdbpPolicy::shouldBypass(const cache::AccessInfo& info, std::uint32_t)
{
    // Dirty data must be kept; everything else predicted dead on
    // arrival skips allocation (the original SDBP optimization).
    if (info.type == cache::AccessType::Writeback)
        return false;
    return predictor_.isDead(lastConfidence_);
}

std::uint32_t
SdbpPolicy::victimWay(const cache::AccessInfo& info, std::uint32_t set)
{
    const std::size_t base = static_cast<std::size_t>(set) * ways_;
    for (std::uint32_t w = 0; w < ways_; ++w)
        if (deadBit_[base + w])
            return w;
    return lru_.victimWay(info, set);
}

void
SdbpPolicy::onFill(const cache::AccessInfo& info, std::uint32_t set,
                   std::uint32_t way)
{
    deadBit_[static_cast<std::size_t>(set) * ways_ + way] =
        info.type != cache::AccessType::Writeback &&
                predictor_.isDead(lastConfidence_)
            ? 1
            : 0;
    lru_.onFill(info, set, way);
}

void
SdbpPolicy::onEvict(std::uint32_t set, std::uint32_t way)
{
    deadBit_[static_cast<std::size_t>(set) * ways_ + way] = 0;
}

} // namespace mrp::policy

#include "policy/perceptron.hpp"

#include "util/hash.hpp"
#include "util/logging.hpp"

namespace mrp::policy {

PerceptronPredictor::PerceptronPredictor(
    const cache::CacheGeometry& llc_geom, unsigned cores,
    const PerceptronConfig& cfg)
    : cfg_(cfg), weightMin_(-(1 << (cfg.weightBits - 1))),
      weightMax_((1 << (cfg.weightBits - 1)) - 1),
      sampling_(llc_geom.sets(),
                std::min(cfg.sampledSetsPerCore * cores,
                         llc_geom.sets())),
      samplerSets_(sampling_.sampledSets())
{
    for (auto& s : samplerSets_)
        s.resize(cfg_.samplerAssoc);
    for (auto& t : tables_)
        t.assign(kTableSize, SignedWeight(cfg_.weightBits, 0));
}

PerceptronPredictor::IndexVec
PerceptronPredictor::computeIndices(const cache::AccessInfo& info) const
{
    // Feature values from the MICRO 2016 paper: the current PC and the
    // three most recent memory-access PCs (each shifted right by its
    // history depth) and two shifts of the block address.
    std::array<std::uint64_t, kFeatures> values{};
    values[0] = info.pc >> 2;
    const Addr blk = blockAddr(info.addr);
    values[4] = blk >> 4;
    values[5] = blk >> 7;
    if (info.ctx) {
        values[1] = info.ctx->pcHistory.recent(0) >> 1;
        values[2] = info.ctx->pcHistory.recent(1) >> 2;
        values[3] = info.ctx->pcHistory.recent(2) >> 3;
    } else {
        values[1] = values[2] = values[3] = info.pc;
    }
    IndexVec idx{};
    for (unsigned f = 0; f < kFeatures; ++f)
        idx[f] = static_cast<std::uint8_t>(
            hashToIndex(values[f] + 0x9E37ull * f, kTableSize));
    return idx;
}

int
PerceptronPredictor::sumOf(const IndexVec& idx) const
{
    int sum = 0;
    for (unsigned f = 0; f < kFeatures; ++f)
        sum += tables_[f][idx[f]].value();
    return sum;
}

void
PerceptronPredictor::adjust(const IndexVec& idx, bool dead)
{
    for (unsigned f = 0; f < kFeatures; ++f) {
        if (dead)
            tables_[f][idx[f]].increment();
        else
            tables_[f][idx[f]].decrement();
    }
}

int
PerceptronPredictor::observe(const cache::AccessInfo& info,
                             std::uint32_t set, bool hit)
{
    (void)hit;
    if (info.type == cache::AccessType::Writeback)
        return 0;

    const IndexVec idx = computeIndices(info);
    const int yout = sumOf(idx);

    if (sampling_.sampled(set)) {
        auto& sset = samplerSets_[sampling_.samplerSetOf(set)];
        const std::uint16_t tag = SetSampling::partialTag(info.addr);
        std::size_t pos = sset.size();
        for (std::size_t i = 0; i < sset.size(); ++i) {
            if (sset[i].valid && sset[i].tag == tag) {
                pos = i;
                break;
            }
        }
        if (pos < sset.size()) {
            // Reuse observed: train toward live unless the stored
            // prediction was already confidently live.
            if (sset[pos].yout > -cfg_.trainingThreshold)
                adjust(sset[pos].indices, /*dead=*/false);
            Entry e = sset[pos];
            e.yout = static_cast<std::int16_t>(yout);
            e.indices = idx;
            sset.erase(sset.begin() + static_cast<long>(pos));
            sset.insert(sset.begin(), e);
        } else {
            // Eviction from the sampler: the victim died. Train toward
            // dead unless already confidently dead.
            const Entry& victim = sset.back();
            if (victim.valid && victim.yout < cfg_.trainingThreshold)
                adjust(victim.indices, /*dead=*/true);
            sset.pop_back();
            Entry e;
            e.valid = true;
            e.tag = tag;
            e.yout = static_cast<std::int16_t>(yout);
            e.indices = idx;
            sset.insert(sset.begin(), e);
        }
    }
    return yout;
}

PerceptronPolicy::PerceptronPolicy(const cache::CacheGeometry& geom,
                                   unsigned cores,
                                   const PerceptronConfig& cfg)
    : predictor_(geom, cores, cfg), lru_(geom), ways_(geom.ways()),
      deadBit_(static_cast<std::size_t>(geom.sets()) * geom.ways(), 0)
{
}

void
PerceptronPolicy::onHit(const cache::AccessInfo& info, std::uint32_t set,
                        std::uint32_t way)
{
    if (info.type == cache::AccessType::Writeback)
        return;
    const int yout = predictor_.observe(info, set, true);
    deadBit_[static_cast<std::size_t>(set) * ways_ + way] =
        yout >= predictor_.config().deadThreshold ? 1 : 0;
    lru_.onHit(info, set, way);
}

void
PerceptronPolicy::onMiss(const cache::AccessInfo& info, std::uint32_t set)
{
    if (info.type == cache::AccessType::Writeback) {
        lastConfidence_ = 0;
        return;
    }
    lastConfidence_ = predictor_.observe(info, set, false);
}

bool
PerceptronPolicy::shouldBypass(const cache::AccessInfo& info,
                               std::uint32_t)
{
    if (info.type == cache::AccessType::Writeback)
        return false;
    return lastConfidence_ >= predictor_.config().bypassThreshold;
}

std::uint32_t
PerceptronPolicy::victimWay(const cache::AccessInfo& info,
                            std::uint32_t set)
{
    const std::size_t base = static_cast<std::size_t>(set) * ways_;
    for (std::uint32_t w = 0; w < ways_; ++w)
        if (deadBit_[base + w])
            return w;
    return lru_.victimWay(info, set);
}

void
PerceptronPolicy::onFill(const cache::AccessInfo& info, std::uint32_t set,
                         std::uint32_t way)
{
    deadBit_[static_cast<std::size_t>(set) * ways_ + way] =
        info.type != cache::AccessType::Writeback &&
                lastConfidence_ >= predictor_.config().deadThreshold
            ? 1
            : 0;
    lru_.onFill(info, set, way);
}

void
PerceptronPolicy::onEvict(std::uint32_t set, std::uint32_t way)
{
    deadBit_[static_cast<std::size_t>(set) * ways_ + way] = 0;
}

} // namespace mrp::policy

#include "core/predictor.hpp"

#include <algorithm>
#include <bit>

#include "util/logging.hpp"

namespace mrp::core {

namespace {

/** @p cfg, checked before any member is built from it. */
const MultiperspectiveConfig&
checkedConfig(const MultiperspectiveConfig& cfg)
{
    fatalIf(cfg.features.empty(), "predictor needs at least one feature");
    fatalIf(cfg.features.size() > kMaxFeatures,
            "too many features for the sampler entry layout");
    fatalIf(cfg.samplerAssoc == 0 ||
                cfg.samplerAssoc > kMaxFeatureAssoc,
            "sampler associativity out of range");
    for (const auto& f : cfg.features)
        fatalIf(f.assoc > cfg.samplerAssoc,
                "feature associativity exceeds the sampler's: " +
                    f.toString());
    // Weights are int8_t, and the int16_t sums add up to kMaxFeatures
    // of them.
    fatalIf(cfg.weightBits < 1 || cfg.weightBits > 8,
            "predictor weightBits must be 1..8, got " +
                std::to_string(cfg.weightBits));
    fatalIf(cfg.confidenceClamp < 0,
            "predictor confidenceClamp must be >= 0, got " +
                std::to_string(cfg.confidenceClamp));
    return cfg;
}

/** True for a feature whose index is one bit of the flag word, or
 * none: an un-xored bias, burst, insert or lastmiss. */
bool
isFlagFeature(const FeatureSpec& f)
{
    return !f.xorPc && f.kind != FeatureKind::Pc &&
           f.kind != FeatureKind::Address &&
           f.kind != FeatureKind::Offset;
}

} // namespace

MultiperspectivePredictor::MultiperspectivePredictor(
    const cache::CacheGeometry& llc_geom, unsigned cores,
    const MultiperspectiveConfig& cfg)
    : cfg_(checkedConfig(cfg)), weightMin_(-(1 << (cfg.weightBits - 1))),
      weightMax_((1 << (cfg.weightBits - 1)) - 1),
      sums_(kFlagWords, 0),
      sampling_(llc_geom.sets(),
                static_cast<std::uint32_t>(std::min<std::uint64_t>(
                    std::uint64_t{cfg.sampledSetsPerCore} * cores,
                    llc_geom.sets()))),
      samplerSets_(sampling_.sampledSets()),
      lastMiss_(llc_geom.sets(), 0), lastBlock_(llc_geom.sets(), ~Addr{0})
{
    features_.reserve(cfg.features.size());
    for (std::size_t i = 0; i < cfg.features.size(); ++i) {
        const FeatureSpec& f = cfg.features[i];
        const CompiledFeature& c = features_.emplace_back(
            f, static_cast<std::uint32_t>(weights_.size()));
        weights_.resize(weights_.size() + c.tableSize(), 0);
        for (unsigned p = 0; p < f.assoc; ++p)
            liveAt_[p] |= FeatureMask{1} << i;
        deadAt_[f.assoc] |= FeatureMask{1} << i;
        const auto w = static_cast<std::uint8_t>(c.historyDepth());
        if (w != 0 && std::find(historyDepths_.begin(),
                                historyDepths_.end(),
                                w) == historyDepths_.end())
            historyDepths_.push_back(w);

        Member& m = members_.emplace_back();
        if (isFlagFeature(f)) {
            m.shift = f.kind == FeatureKind::Insert     ? 1
                      : f.kind == FeatureKind::LastMiss ? 2
                                                        : 0;
            m.mask = f.kind == FeatureKind::Bias ? 0 : 1;
            continue;
        }
        const CompiledFeature g(f, static_cast<std::uint32_t>(sums_.size()));
        auto it = std::find_if(
            groups_.begin(), groups_.end(),
            [&](const CompiledFeature& o) { return o.sameIndex(g); });
        if (it == groups_.end()) {
            sums_.resize(sums_.size() + g.tableSize(), 0);
            it = groups_.insert(it, g);
        }
        m.group = static_cast<std::uint8_t>(it - groups_.begin());
    }
}

std::size_t
MultiperspectivePredictor::totalWeights() const
{
    return weights_.size();
}

double
MultiperspectivePredictor::meanAbsWeight(std::size_t feature) const
{
    const CompiledFeature& c = features_[feature];
    const auto first = weights_.begin() + c.weightOffset();
    std::uint64_t sum = 0;
    for (auto w = first; w != first + c.tableSize(); ++w)
        sum += static_cast<std::uint64_t>(*w < 0 ? -*w : *w);
    return static_cast<double>(sum) / static_cast<double>(c.tableSize());
}

namespace {

/** Sorted, deduplicated histogram bounds spanning [lo, hi]. */
std::vector<std::int64_t>
symmetricBounds(int lo, int hi)
{
    std::vector<std::int64_t> b;
    for (const int v : {lo, lo / 2, lo / 4, lo / 8, -1, 0, hi / 8,
                        hi / 4, hi / 2, hi})
        b.push_back(v);
    std::sort(b.begin(), b.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());
    return b;
}

/** Two-digit feature tag for stable metric-name sorting. */
std::string
featureTag(std::size_t f)
{
    return f < 10 ? "0" + std::to_string(f) : std::to_string(f);
}

} // namespace

void
MultiperspectivePredictor::attachTelemetry(
    telemetry::MetricsRegistry& registry)
{
    tel_ = std::make_unique<Telemetry>();
    const auto weight_bounds = symmetricBounds(weightMin_, weightMax_);
    for (std::size_t f = 0; f < cfg_.features.size(); ++f) {
        const std::string base = "predictor.feature." + featureTag(f);
        tel_->featureWeight.push_back(
            &registry.histogram(base + ".weight", weight_bounds));
        registry.gaugeFn(base + ".mean_abs_weight",
                         [this, f] { return meanAbsWeight(f); });
    }
    const auto conf_bounds =
        symmetricBounds(minConfidence(), maxConfidence());
    tel_->confidenceHit =
        &registry.histogram("predictor.confidence.hit", conf_bounds);
    tel_->confidenceMiss =
        &registry.histogram("predictor.confidence.miss", conf_bounds);
    registry.gaugeFn("predictor.training_events", [this] {
        return static_cast<double>(trainingEvents_);
    });
}

void
MultiperspectivePredictor::nudge(std::size_t feature, std::uint8_t index,
                                 int step)
{
    std::int8_t& w = weight(feature, index);
    const int moved = w + step;
    if (moved < weightMin_ || moved > weightMax_)
        return; // saturated: no sum changes either
    w = static_cast<std::int8_t>(moved);
    const Member& m = members_[feature];
    if (m.group != kFlagSlot) {
        sums_[groups_[m.group].weightOffset() + index] += step;
        return;
    }
    for (unsigned word = 0; word < kFlagWords; ++word)
        if (((word >> m.shift) & m.mask) == index)
            sums_[word] += step;
}

void
MultiperspectivePredictor::train(FeatureMask features, const IndexVec& idx,
                                 bool dead)
{
    for (; features != 0; features &= features - 1) {
        const auto f = static_cast<std::size_t>(std::countr_zero(features));
        nudge(f, idx[f], dead ? 1 : -1);
    }
}

void
MultiperspectivePredictor::trainDemotions(const SamplerSet& sset,
                                          std::size_t count)
{
    // Entries 0..count-1 each move down one position; a block arriving
    // exactly at a feature's A is dead for that feature.
    for (std::size_t q = 0; q < count; ++q) {
        const SamplerEntry& demoted = sset.entries[sset.order[q]];
        if (demoted.confidence < cfg_.trainingThreshold)
            train(deadAt_[q + 1], demoted.indices, /*dead=*/true);
    }
}

void
MultiperspectivePredictor::samplerAccess(const cache::AccessInfo& info,
                                         std::uint32_t set,
                                         const IndexVec& idx,
                                         int confidence)
{
    SamplerSet& sset = samplerSets_[sampling_.samplerSetOf(set)];
    const std::uint16_t tag = policy::SetSampling::partialTag(info.addr);

    std::size_t pos = 0;
    while (pos < sset.count && sset.entries[sset.order[pos]].tag != tag)
        ++pos;

    std::uint8_t slot;
    if (pos < sset.count) {
        // ---- Reuse at LRU position pos. ----
        // Train "live" only in tables whose associativity would still
        // have held the block (p < A); gate on the stored prediction
        // per the perceptron rule.
        slot = sset.order[pos];
        const SamplerEntry& entry = sset.entries[slot];
        if (entry.confidence > -cfg_.trainingThreshold)
            train(liveAt_[pos], entry.indices, /*dead=*/false);
        ++trainingEvents_;
        trainDemotions(sset, pos);
    } else {
        // ---- Placement: everyone shifts down one position, and a
        // full set evicts its LRU entry, whose slot is reused. Slots
        // fill in order and are never freed. ----
        trainDemotions(sset, sset.count);
        ++trainingEvents_;
        slot = sset.count < cfg_.samplerAssoc ? sset.count++
                                               : sset.order[sset.count - 1];
        pos = sset.count - 1u;
        sset.entries[slot].tag = tag;
    }
    // Move the slot to MRU.
    std::copy_backward(sset.order.begin(),
                       sset.order.begin() + static_cast<long>(pos),
                       sset.order.begin() + static_cast<long>(pos) + 1);
    sset.order[0] = slot;
    SamplerEntry& mru = sset.entries[slot];
    mru.confidence = static_cast<std::int16_t>(confidence);
    mru.indices = idx;
}

int
MultiperspectivePredictor::observe(const cache::AccessInfo& info,
                                   std::uint32_t set, bool hit)
{
    if (info.type == cache::AccessType::Writeback)
        return 0;

    const Addr blk = blockAddr(info.addr);
    FeatureInput in;
    in.pc = info.pc;
    in.addr = info.addr;
    in.ctx = info.ctx;
    in.isInsert = !hit;
    in.lastMiss = lastMiss_[set] != 0;
    in.isBurst = lastBlock_[set] == blk;
    const FeatureSources src(in, historyDepths_);

    // One index and one load per distinct index function; the flag
    // word's index sits at kFlagSlot.
    std::array<std::uint8_t, kFlagSlot + 1> gidx;
    gidx[kFlagSlot] = static_cast<std::uint8_t>(
        in.isBurst | in.isInsert << 1 | in.lastMiss << 2);
    int sum = sums_[gidx[kFlagSlot]];
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        const CompiledFeature& c = groups_[g];
        const std::uint32_t i = c.index(src);
        gidx[g] = static_cast<std::uint8_t>(i);
        sum += sums_[c.weightOffset() + i];
    }
    const int confidence =
        std::clamp(sum, -cfg_.confidenceClamp - 1, cfg_.confidenceClamp);

    const bool sampled = sampling_.sampled(set);
    if (sampled || tel_) {
        IndexVec idx{};
        for (std::size_t f = 0; f < members_.size(); ++f) {
            const Member& m = members_[f];
            idx[f] = static_cast<std::uint8_t>((gidx[m.group] >> m.shift) &
                                               m.mask);
        }
        if (tel_) {
            for (std::size_t f = 0; f < features_.size(); ++f)
                tel_->featureWeight[f]->record(weight(f, idx[f]));
            (hit ? tel_->confidenceHit : tel_->confidenceMiss)
                ->record(confidence);
        }
        if (sampled)
            samplerAccess(info, set, idx, confidence);
    }

    lastMiss_[set] = hit ? 0 : 1;
    lastBlock_[set] = blk;
    return confidence;
}

} // namespace mrp::core

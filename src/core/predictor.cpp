#include "core/predictor.hpp"

#include <algorithm>
#include <bit>

#include "util/logging.hpp"

namespace mrp::core {

MultiperspectivePredictor::MultiperspectivePredictor(
    const cache::CacheGeometry& llc_geom, unsigned cores,
    const MultiperspectiveConfig& cfg)
    : cfg_(cfg), weightMin_(-(1 << (cfg.weightBits - 1))),
      weightMax_((1 << (cfg.weightBits - 1)) - 1),
      sampling_(llc_geom.sets(),
                std::min(cfg.sampledSetsPerCore * cores,
                         llc_geom.sets())),
      samplerSets_(sampling_.sampledSets()),
      lastMiss_(llc_geom.sets(), 0), lastBlock_(llc_geom.sets(), ~Addr{0})
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
MultiperspectivePredictor::train(FeatureMask features, const IndexVec& idx,
                                 bool dead)
{
    for (; features != 0; features &= features - 1) {
        const auto f = static_cast<std::size_t>(std::countr_zero(features));
        std::int8_t& w = weight(f, idx[f]);
        if (dead) {
            if (w < weightMax_)
                ++w;
        } else {
            if (w > weightMin_)
                --w;
        }
    }
}

void
MultiperspectivePredictor::trainDemotions(const SamplerSet& sset,
                                          std::size_t count)
{
    // Entries 0..count-1 each move down one position; a block arriving
    // exactly at a feature's A is dead for that feature.
    for (std::size_t q = 0; q < count; ++q) {
        const SamplerEntry& demoted = sset.entries[q];
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
    const auto first = sset.entries.begin();
    const std::uint16_t tag = policy::SetSampling::partialTag(info.addr);

    std::size_t pos = 0;
    while (pos < sset.count && sset.entries[pos].tag != tag)
        ++pos;

    if (pos < sset.count) {
        // ---- Reuse at LRU position pos. ----
        // Train "live" only in tables whose associativity would still
        // have held the block (p < A); gate on the stored prediction
        // per the perceptron rule.
        const SamplerEntry& entry = sset.entries[pos];
        if (entry.confidence > -cfg_.trainingThreshold)
            train(liveAt_[pos], entry.indices, /*dead=*/false);
        ++trainingEvents_;
        trainDemotions(sset, pos);
        // Move the entry to MRU.
        std::rotate(first, first + static_cast<long>(pos),
                    first + static_cast<long>(pos) + 1);
    } else {
        // ---- Placement: everyone shifts down one position, and a
        // full set evicts its LRU entry. ----
        trainDemotions(sset, sset.count);
        ++trainingEvents_;
        if (sset.count < cfg_.samplerAssoc)
            ++sset.count;
        std::rotate(first, first + sset.count - 1, first + sset.count);
        sset.entries[0].tag = tag;
    }
    sset.entries[0].confidence = static_cast<std::int16_t>(confidence);
    sset.entries[0].indices = idx;
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

    IndexVec idx{};
    int sum = 0;
    for (std::size_t f = 0; f < features_.size(); ++f) {
        const CompiledFeature& c = features_[f];
        const std::uint32_t i = c.index(src);
        idx[f] = static_cast<std::uint8_t>(i);
        sum += weights_[c.weightOffset() + i];
    }
    const int confidence =
        std::clamp(sum, -cfg_.confidenceClamp - 1, cfg_.confidenceClamp);

    if (tel_) {
        for (std::size_t f = 0; f < features_.size(); ++f)
            tel_->featureWeight[f]->record(weight(f, idx[f]));
        (hit ? tel_->confidenceHit : tel_->confidenceMiss)
            ->record(confidence);
    }

    if (sampling_.sampled(set))
        samplerAccess(info, set, idx, confidence);

    lastMiss_[set] = hit ? 0 : 1;
    lastBlock_[set] = blk;
    return confidence;
}

} // namespace mrp::core

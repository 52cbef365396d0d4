/**
 * @file
 * Tests for the multiperspective predictor: configuration validation,
 * learning dead and live PC streams through the sampler, per-feature
 * associativity behaviour, confidence bounds, and a differential test
 * against a deliberately naive reference model of the whole predictor.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <list>
#include <map>

#include "core/feature_sets.hpp"
#include "core/predictor.hpp"
#include "util/bitfield.hpp"

namespace mrp::core {
namespace {

cache::CacheGeometry
geom()
{
    return cache::CacheGeometry(2 * 1024 * 1024, 16);
}

MultiperspectiveConfig
smallConfig(std::vector<FeatureSpec> features)
{
    MultiperspectiveConfig cfg;
    cfg.features = std::move(features);
    return cfg;
}

cache::AccessInfo
access(Pc pc, Addr addr)
{
    cache::AccessInfo info;
    info.pc = pc;
    info.addr = addr;
    info.type = cache::AccessType::Load;
    return info;
}

/** Drive a predictor with a dead stream: every block touched once. */
int
trainDeadStream(MultiperspectivePredictor& pred, Pc pc,
                std::uint32_t set, int rounds)
{
    int conf = 0;
    for (int i = 0; i < rounds; ++i) {
        // Unique block every time: pure dead-on-arrival traffic.
        const Addr a = (static_cast<Addr>(i) * 2048 + set) * 64;
        conf = pred.observe(access(pc, a), set, /*hit=*/false);
    }
    return conf;
}

TEST(PredictorConfigTest, Validation)
{
    MultiperspectiveConfig cfg;
    EXPECT_THROW(MultiperspectivePredictor(geom(), 1, cfg), FatalError);
    cfg.features = featureSetTable1A();
    cfg.samplerAssoc = 0;
    EXPECT_THROW(MultiperspectivePredictor(geom(), 1, cfg), FatalError);
    cfg.samplerAssoc = 12; // smaller than some feature A values
    EXPECT_THROW(MultiperspectivePredictor(geom(), 1, cfg), FatalError);
    cfg.samplerAssoc = 18;
    cfg.features = {FeatureSpec::parse("pc(16,0,16,19,0)")}; // W > 18
    EXPECT_THROW(MultiperspectivePredictor(geom(), 1, cfg), FatalError);
}

TEST(PredictorConfigTest, TotalWeightsMatchTableSizes)
{
    const auto cfg = smallConfig(featureSetTable1A());
    MultiperspectivePredictor pred(geom(), 1, cfg);
    std::size_t expected = 0;
    for (const auto& f : cfg.features)
        expected += f.tableSize();
    EXPECT_EQ(pred.totalWeights(), expected);
}

TEST(PredictorTest, LearnsADeadPcStream)
{
    auto cfg = smallConfig({FeatureSpec::parse("bias(18,1)")});
    MultiperspectivePredictor pred(geom(), 1, cfg);
    // Set 0 is sampled (sampling picks multiples of sets/sampled).
    const int conf = trainDeadStream(pred, 0x400000, 0, 2000);
    EXPECT_GT(conf, 20); // strongly dead
}

TEST(PredictorTest, LearnsALivePcStream)
{
    auto cfg = smallConfig({FeatureSpec::parse("bias(18,1)")});
    MultiperspectivePredictor pred(geom(), 1, cfg);
    // Two blocks ping-ponged: every access after the first pair is a
    // reuse at LRU position 1 (< A for all features).
    int conf = 0;
    for (int i = 0; i < 2000; ++i)
        conf = pred.observe(access(0x400000, (i % 2) * 2048 * 64), 0,
                            true);
    EXPECT_LT(conf, -20); // strongly live
}

TEST(PredictorTest, SeparatesDeadAndLivePcs)
{
    auto cfg = smallConfig({FeatureSpec::parse("bias(18,1)")});
    MultiperspectivePredictor pred(geom(), 1, cfg);
    const Pc dead_pc = 0x400000;
    const Pc live_pc = 0x500000;
    for (int i = 0; i < 3000; ++i) {
        // Dead PC touches fresh blocks; live PC ping-pongs two blocks.
        pred.observe(
            access(dead_pc, (static_cast<Addr>(i) * 4096 + 1) * 2048 * 64),
            0, false);
        pred.observe(access(live_pc, (i % 2) * 2048 * 64), 0, true);
    }
    const int dead_conf = pred.observe(
        access(dead_pc, 0x123ull * 2048 * 64), 0, false);
    const int live_conf =
        pred.observe(access(live_pc, 0), 0, true);
    EXPECT_GT(dead_conf, live_conf + 20);
}

TEST(PredictorTest, ConfidenceStaysWithinNineBits)
{
    auto cfg = smallConfig(featureSetTable1A());
    MultiperspectivePredictor pred(geom(), 1, cfg);
    Rng rng(1);
    int lo = 0, hi = 0;
    for (int i = 0; i < 20000; ++i) {
        const int c = pred.observe(
            access(0x400000 + 4 * rng.below(4), rng.below(1u << 30)),
            0, rng.chance(0.3));
        lo = std::min(lo, c);
        hi = std::max(hi, c);
    }
    EXPECT_GE(lo, pred.minConfidence());
    EXPECT_LE(hi, pred.maxConfidence());
    EXPECT_EQ(pred.maxConfidence(), 255);
    EXPECT_EQ(pred.minConfidence(), -256);
}

TEST(PredictorTest, NonSampledSetsDoNotTrain)
{
    auto cfg = smallConfig({FeatureSpec::parse("bias(18,1)")});
    MultiperspectivePredictor pred(geom(), 1, cfg);
    // Set 1 is not sampled (2048 sets, 64 sampled => multiples of 32).
    const int before = pred.observe(access(0x400000, 64), 1, false);
    trainDeadStream(pred, 0x400000, 1, 500);
    const int after = pred.observe(access(0x400000, 64), 1, false);
    EXPECT_EQ(pred.trainingEvents(), 0u);
    EXPECT_EQ(before, after);
}

TEST(PredictorTest, WritebacksAreIgnored)
{
    auto cfg = smallConfig({FeatureSpec::parse("bias(18,1)")});
    MultiperspectivePredictor pred(geom(), 1, cfg);
    cache::AccessInfo wb = access(0x400000, 64);
    wb.type = cache::AccessType::Writeback;
    EXPECT_EQ(pred.observe(wb, 0, false), 0);
    EXPECT_EQ(pred.trainingEvents(), 0u);
}

/**
 * Per-feature associativity: with A=1, a reuse at LRU position >= 1
 * must NOT train "live" (the feature's 1-way cache would have missed),
 * while an A=18 feature trains live for any sampler hit.
 */
TEST(PredictorTest, AssociativityGatesLiveTraining)
{
    auto run = [&](const char* feature) {
        auto cfg = smallConfig({FeatureSpec::parse(feature)});
        MultiperspectivePredictor pred(geom(), 1, cfg);
        int conf = 0;
        // Ping-pong two blocks: each hit occurs at LRU position 1.
        for (int i = 0; i < 1000; ++i)
            conf = pred.observe(access(0x400000, (i % 2) * 2048 * 64),
                                0, true);
        return conf;
    };
    EXPECT_LT(run("bias(18,1)"), -20); // live at assoc 18
    // At A=1 the same stream never trains live, and each promotion
    // demotes the other block to exactly position 1 == A => dead.
    EXPECT_GT(run("bias(1,1)"), 20);
}

TEST(PredictorTest, DistinguishesByAddressRegion)
{
    auto cfg = smallConfig({FeatureSpec::parse("address(18,12,25,0)")});
    MultiperspectivePredictor pred(geom(), 1, cfg);
    const Addr live_base = 0x10000000;
    const Addr dead_base = 0x80000000;
    for (int i = 0; i < 3000; ++i) {
        pred.observe(access(0x400000, live_base + (i % 2) * 2048 * 64),
                     0, true);
        pred.observe(
            access(0x400000,
                   dead_base + (static_cast<Addr>(i) + 7) * 2048 * 64),
            0, false);
    }
    // Probe with addresses drawn from the trained populations (the
    // bases themselves alias: both have zero bits in 12..25).
    const int live = pred.observe(
        access(0x400000, live_base + 1 * 2048 * 64), 0, true);
    const int dead = pred.observe(
        access(0x400000, dead_base + 1234ull * 2048 * 64), 0, false);
    EXPECT_GT(dead, live + 20);
}

// ---------------------------------------------------------------------
// Reference model: the predictor written as plainly as possible, as the
// specification the optimized MultiperspectivePredictor must match.
// ---------------------------------------------------------------------

/** A feature's table index, computed straight from its parameters. */
std::uint32_t
referenceIndex(const FeatureSpec& spec, const FeatureInput& in)
{
    std::uint64_t value = 0;
    switch (spec.kind) {
      case FeatureKind::Pc: {
          Pc pc = in.pc;
          if (spec.depth > 0 && in.ctx)
              pc = in.ctx->pcHistory.recent(spec.depth - 1);
          value = bits(pc, spec.begin, spec.end);
          break;
      }
      case FeatureKind::Address:
        value = bits(in.addr, spec.begin, spec.end);
        break;
      case FeatureKind::Bias:
        value = 0;
        break;
      case FeatureKind::Burst:
        value = in.isBurst ? 1 : 0;
        break;
      case FeatureKind::Insert:
        value = in.isInsert ? 1 : 0;
        break;
      case FeatureKind::LastMiss:
        value = in.lastMiss ? 1 : 0;
        break;
      case FeatureKind::Offset:
        value = bits(blockOffset(in.addr), spec.begin, spec.end);
        break;
    }
    const std::uint32_t size = spec.tableSize();
    if (spec.xorPc) {
        const std::uint64_t mixed =
            foldXor(value, 8) ^ foldXor(in.pc >> 2, 8);
        return static_cast<std::uint32_t>(mixed & (size - 1));
    }
    return static_cast<std::uint32_t>(
        foldXor(value, log2Ceil(size)) & (size - 1));
}

/**
 * Vector-of-vector weight tables and, per sampled set, a std::list
 * true-LRU sampler (front = MRU) that evicts explicitly when it grows
 * past samplerAssoc entries.
 */
class ReferencePredictor
{
  public:
    ReferencePredictor(const cache::CacheGeometry& llc,
                       const MultiperspectiveConfig& cfg)
        : cfg_(cfg),
          ratio_(llc.sets() / std::min(cfg.sampledSetsPerCore,
                                       llc.sets())),
          lastMiss_(llc.sets(), false), lastBlock_(llc.sets(), ~Addr{0})
    {
        for (const auto& f : cfg.features)
            tables_.emplace_back(f.tableSize(), 0);
    }

    int
    observe(const cache::AccessInfo& info, std::uint32_t set, bool hit)
    {
        if (info.type == cache::AccessType::Writeback)
            return 0;
        FeatureInput in;
        in.pc = info.pc;
        in.addr = info.addr;
        in.ctx = info.ctx;
        in.isInsert = !hit;
        in.lastMiss = lastMiss_[set];
        in.isBurst = lastBlock_[set] == blockAddr(info.addr);

        std::vector<std::uint32_t> idx;
        int sum = 0;
        for (std::size_t f = 0; f < cfg_.features.size(); ++f) {
            idx.push_back(referenceIndex(cfg_.features[f], in));
            sum += tables_[f][idx[f]];
        }
        const int conf = std::clamp(sum, -cfg_.confidenceClamp - 1,
                                    cfg_.confidenceClamp);
        if (set % ratio_ == 0)
            sample(samplers_[set],
                   policy::SetSampling::partialTag(info.addr), idx, conf);
        lastMiss_[set] = !hit;
        lastBlock_[set] = blockAddr(info.addr);
        return conf;
    }

    std::uint64_t trainingEvents() const { return events_; }

    double
    meanAbsWeight(std::size_t f) const
    {
        double sum = 0;
        for (const int w : tables_[f])
            sum += std::abs(w);
        return sum / static_cast<double>(tables_[f].size());
    }

  private:
    struct Entry
    {
        std::uint16_t tag;
        int conf;
        std::vector<std::uint32_t> idx;
    };

    void
    train(std::size_t f, std::uint32_t i, bool dead)
    {
        const int hi = (1 << (cfg_.weightBits - 1)) - 1;
        int& w = tables_[f][i];
        w = dead ? std::min(w + 1, hi) : std::max(w - 1, -hi - 1);
    }

    /** The entry at LRU position q moves to q + 1. */
    void
    demote(const Entry& e, std::size_t q)
    {
        if (e.conf >= cfg_.trainingThreshold)
            return;
        for (std::size_t f = 0; f < cfg_.features.size(); ++f)
            if (q + 1 == cfg_.features[f].assoc)
                train(f, e.idx[f], /*dead=*/true);
    }

    void
    sample(std::list<Entry>& lru, std::uint16_t tag,
           const std::vector<std::uint32_t>& idx, int conf)
    {
        auto it = std::find_if(lru.begin(), lru.end(),
                               [&](const Entry& e) { return e.tag == tag; });
        const auto pos =
            static_cast<std::size_t>(std::distance(lru.begin(), it));
        if (it != lru.end()) {
            if (it->conf > -cfg_.trainingThreshold)
                for (std::size_t f = 0; f < cfg_.features.size(); ++f)
                    if (pos < cfg_.features[f].assoc)
                        train(f, it->idx[f], /*dead=*/false);
            ++events_;
            std::size_t q = 0;
            for (auto d = lru.begin(); d != it; ++d)
                demote(*d, q++);
            lru.erase(it);
        } else {
            std::size_t q = 0;
            for (const Entry& d : lru)
                demote(d, q++);
            ++events_;
        }
        lru.push_front(Entry{tag, conf, idx});
        if (lru.size() > cfg_.samplerAssoc)
            lru.pop_back();
    }

    MultiperspectiveConfig cfg_;
    std::uint32_t ratio_;
    std::vector<std::vector<int>> tables_;
    std::map<std::uint32_t, std::list<Entry>> samplers_;
    std::vector<bool> lastMiss_;
    std::vector<Addr> lastBlock_;
    std::uint64_t events_ = 0;
};

/** A PC from a small pool that includes PCs with high bits set. */
Pc
randomPc(Rng& rng)
{
    const Pc base = rng.chance(0.25) ? 0x7f3a9c0000000000ull : 0x400000;
    return base + 4 * rng.below(48);
}

/**
 * Drive the predictor and the reference with one seeded stream: a
 * skewed working set (so sampler hits land at every LRU position and
 * full sets evict), a live CoreContext fed every demand PC, and some
 * writebacks and loads without a context.
 */
void
expectMatchesReference(const MultiperspectiveConfig& cfg,
                       std::uint64_t seed, int accesses)
{
    const cache::CacheGeometry llc(256 * 1024, 16); // 256 sets
    MultiperspectivePredictor pred(llc, 1, cfg);
    ReferencePredictor ref(llc, cfg);
    cache::CoreContext ctx;
    Rng rng(seed);
    for (int i = 0; i < accesses; ++i) {
        Addr blk;
        if (rng.chance(0.05))
            blk = rng.below(1ull << 42); // a cold block
        else
            blk = rng.below(llc.sets()) +
                  llc.sets() * rng.below(rng.chance(0.5) ? 4 : 28);
        cache::AccessInfo info;
        info.pc = randomPc(rng);
        info.addr = blk * 64 + rng.below(64);
        info.ctx = rng.chance(0.02) ? nullptr : &ctx;
        if (rng.chance(0.1)) {
            info.type = cache::AccessType::Writeback;
            info.ctx = nullptr;
        }
        const bool hit = rng.chance(0.5);
        const std::uint32_t set = llc.setIndex(info.addr);
        ASSERT_EQ(pred.observe(info, set, hit), ref.observe(info, set, hit))
            << "access " << i;
        if (info.ctx)
            ctx.notePc(info.pc);
    }
    EXPECT_EQ(pred.trainingEvents(), ref.trainingEvents());
    EXPECT_GT(pred.trainingEvents(), 0u);
    for (std::size_t f = 0; f < cfg.features.size(); ++f)
        EXPECT_EQ(pred.meanAbsWeight(f), ref.meanAbsWeight(f))
            << cfg.features[f].toString();
}

TEST(PredictorReferenceTest, FeatureIndexMatchesReference)
{
    Rng rng(7);
    cache::CoreContext ctx;
    for (int i = 0; i < 20000; ++i) {
        ctx.notePc(randomPc(rng));
        const FeatureSpec f = FeatureSpec::random(rng);
        FeatureInput in;
        in.pc = randomPc(rng);
        in.addr = rng.next();
        in.ctx = rng.chance(0.9) ? &ctx : nullptr;
        in.isInsert = rng.chance(0.5);
        in.lastMiss = rng.chance(0.5);
        in.isBurst = rng.chance(0.5);
        ASSERT_EQ(featureIndex(f, in), referenceIndex(f, in))
            << f.toString();
    }
}

TEST(PredictorReferenceTest, PaperFeatureSets)
{
    for (const auto& set : {featureSetTable1A(), featureSetTable1B(),
                            featureSetTable2(), featureSetLocal()}) {
        SCOPED_TRACE(formatFeatureSet(set));
        expectMatchesReference(smallConfig(set), 11, 60000);
    }
}

TEST(PredictorReferenceTest, EdgeCaseParameters)
{
    // Reversed B/E, B > 63, E > 63, W = 0, the widest pc range, every
    // single-bit kind with and without X, and A at both extremes.
    const auto cfg = smallConfig({
        FeatureSpec::parse("pc(18,40,3,0,1)"),
        FeatureSpec::parse("pc(1,70,80,4,0)"),
        FeatureSpec::parse("pc(9,60,70,17,0)"),
        FeatureSpec::parse("pc(12,0,63,1,0)"),
        FeatureSpec::parse("address(17,30,6,0)"),
        FeatureSpec::parse("address(2,64,64,1)"),
        FeatureSpec::parse("offset(5,5,1,0)"),
        FeatureSpec::parse("offset(3,2,66,0)"),
        FeatureSpec::parse("offset(18,0,5,1)"),
        FeatureSpec::parse("bias(7,0)"),
        FeatureSpec::parse("bias(8,1)"),
        FeatureSpec::parse("burst(4,0)"),
        FeatureSpec::parse("insert(16,1)"),
        FeatureSpec::parse("lastmiss(18,0)"),
    });
    expectMatchesReference(cfg, 13, 60000);
}

TEST(PredictorReferenceTest, RandomFeatureSets)
{
    Rng rng(2017);
    for (int s = 0; s < 50; ++s) {
        std::vector<FeatureSpec> set;
        const auto n = static_cast<std::size_t>(rng.range(1, 16));
        for (std::size_t f = 0; f < n; ++f)
            set.push_back(FeatureSpec::random(rng));
        auto cfg = smallConfig(set);
        if (s % 5 == 0) {
            // A smaller sampler evicts sooner.
            cfg.samplerAssoc = 12;
            for (auto& f : cfg.features)
                f.assoc = std::min(f.assoc, 12u);
        }
        SCOPED_TRACE(formatFeatureSet(cfg.features));
        expectMatchesReference(cfg, 100 + static_cast<std::uint64_t>(s),
                               12000);
    }
}

} // namespace
} // namespace mrp::core

/**
 * @file
 * Tests for the parameterized feature machinery: parsing, formatting,
 * table sizing, index computation, the published feature sets, and
 * the search-support helpers.
 */

#include <gtest/gtest.h>

#include "core/feature.hpp"
#include "core/feature_sets.hpp"
#include "core/mpppb.hpp"
#include "util/bitfield.hpp"
#include "util/logging.hpp"

namespace mrp::core {
namespace {

TEST(FeatureSpecTest, ParseFormatRoundTrip)
{
    for (const char* text :
         {"pc(10,1,53,10,0)", "address(11,8,19,0)", "bias(16,0)",
          "burst(6,0)", "insert(17,1)", "lastmiss(9,0)",
          "offset(15,1,6,1)", "pc(17,6,20,14,1)"}) {
        const FeatureSpec f = FeatureSpec::parse(text);
        EXPECT_EQ(f.toString(), text);
        EXPECT_EQ(FeatureSpec::parse(f.toString()), f);
    }
}

TEST(FeatureSpecTest, ParseRejectsMalformed)
{
    EXPECT_THROW(FeatureSpec::parse("bogus(1,0)"), FatalError);
    EXPECT_THROW(FeatureSpec::parse("pc(1,2,3)"), FatalError);
    EXPECT_THROW(FeatureSpec::parse("bias(1,2,3,4)"), FatalError);
    EXPECT_THROW(FeatureSpec::parse("pc"), FatalError);
    EXPECT_THROW(FeatureSpec::parse("bias(0,0)"), FatalError); // A = 0
    EXPECT_THROW(FeatureSpec::parse("bias(19,0)"), FatalError); // A > 18
}

TEST(FeatureSpecTest, TableSizesFollowThePaper)
{
    // §3.4: pc/address/XORed features: 256; offset up to 64;
    // single-bit: 2; bias: 1.
    EXPECT_EQ(FeatureSpec::parse("pc(10,1,53,10,0)").tableSize(), 256u);
    EXPECT_EQ(FeatureSpec::parse("address(11,8,19,0)").tableSize(),
              256u);
    EXPECT_EQ(FeatureSpec::parse("burst(6,1)").tableSize(), 256u);
    EXPECT_EQ(FeatureSpec::parse("bias(6,1)").tableSize(), 256u);
    EXPECT_EQ(FeatureSpec::parse("offset(15,0,5,0)").tableSize(), 64u);
    EXPECT_EQ(FeatureSpec::parse("offset(15,2,4,0)").tableSize(), 8u);
    EXPECT_EQ(FeatureSpec::parse("burst(6,0)").tableSize(), 2u);
    EXPECT_EQ(FeatureSpec::parse("insert(16,0)").tableSize(), 2u);
    EXPECT_EQ(FeatureSpec::parse("lastmiss(9,0)").tableSize(), 2u);
    EXPECT_EQ(FeatureSpec::parse("bias(16,0)").tableSize(), 1u);
}

TEST(FeatureIndexTest, IndicesStayInTable)
{
    Rng rng(3);
    cache::CoreContext ctx;
    for (int i = 0; i < 64; ++i)
        ctx.pcHistory.push(0x400000 + 4 * rng.below(4096));
    for (int trial = 0; trial < 2000; ++trial) {
        const FeatureSpec f = FeatureSpec::random(rng);
        FeatureInput in;
        in.pc = 0x400000 + 4 * rng.below(4096);
        in.addr = rng.next() & ((1ull << 48) - 1);
        in.ctx = &ctx;
        in.isInsert = rng.chance(0.5);
        in.lastMiss = rng.chance(0.5);
        in.isBurst = rng.chance(0.5);
        EXPECT_LT(featureIndex(f, in), f.tableSize()) << f.toString();
    }
}

TEST(FeatureIndexTest, SingleBitFeaturesReflectTheirInput)
{
    FeatureInput in;
    in.pc = 0x400040;
    in.isInsert = true;
    EXPECT_EQ(featureIndex(FeatureSpec::parse("insert(16,0)"), in), 1u);
    in.isInsert = false;
    EXPECT_EQ(featureIndex(FeatureSpec::parse("insert(16,0)"), in), 0u);
    in.isBurst = true;
    EXPECT_EQ(featureIndex(FeatureSpec::parse("burst(6,0)"), in), 1u);
    in.lastMiss = true;
    EXPECT_EQ(featureIndex(FeatureSpec::parse("lastmiss(9,0)"), in), 1u);
}

TEST(FeatureIndexTest, BiasIgnoresEverything)
{
    const FeatureSpec bias = FeatureSpec::parse("bias(16,0)");
    FeatureInput a;
    a.pc = 0x1234;
    a.addr = 0x9999;
    FeatureInput b;
    b.pc = 0x5678;
    b.addr = 0x1111;
    EXPECT_EQ(featureIndex(bias, a), featureIndex(bias, b));
    EXPECT_EQ(featureIndex(bias, a), 0u);
}

TEST(FeatureIndexTest, XorDistributesByPc)
{
    const FeatureSpec f = FeatureSpec::parse("bias(6,1)");
    FeatureInput a;
    a.pc = 0x400000;
    FeatureInput b;
    b.pc = 0x400004;
    EXPECT_NE(featureIndex(f, a), featureIndex(f, b));
}

TEST(FeatureIndexTest, OffsetUsesInBlockBits)
{
    const FeatureSpec f = FeatureSpec::parse("offset(15,0,5,0)");
    FeatureInput a;
    a.addr = 0x1000 + 17;
    EXPECT_EQ(featureIndex(f, a), 17u);
    // Bits above the block stay invisible.
    FeatureInput b;
    b.addr = 0x2000 + 17;
    EXPECT_EQ(featureIndex(f, b), 17u);
}

TEST(FeatureIndexTest, PcDepthReadsHistory)
{
    cache::CoreContext ctx;
    ctx.pcHistory.push(0x400100); // 2nd most recent
    ctx.pcHistory.push(0x400200); // most recent previous
    const FeatureSpec w1 = FeatureSpec::parse("pc(16,0,16,1,0)");
    const FeatureSpec w2 = FeatureSpec::parse("pc(16,0,16,2,0)");
    const FeatureSpec w0 = FeatureSpec::parse("pc(16,0,16,0,0)");
    FeatureInput in;
    in.pc = 0x400300;
    in.ctx = &ctx;
    EXPECT_EQ(featureIndex(w0, in),
              foldXor(bits(0x400300, 0, 16), 8));
    EXPECT_EQ(featureIndex(w1, in),
              foldXor(bits(0x400200, 0, 16), 8));
    EXPECT_EQ(featureIndex(w2, in),
              foldXor(bits(0x400100, 0, 16), 8));
}

TEST(FeatureIndexTest, DepthBeyondThePcHistoryIsAConfigError)
{
    // The history holds 18 PCs, so W = 18 is the deepest readable.
    FeatureInput in;
    in.pc = 0x400300;
    EXPECT_NO_THROW(featureIndex(FeatureSpec::parse("pc(16,0,16,18,0)"),
                                 in));
    EXPECT_THROW(featureIndex(FeatureSpec::parse("pc(16,0,16,19,0)"), in),
                 FatalError);
}

TEST(PublishedSetsTest, AllThreeHaveSixteenFeatures)
{
    EXPECT_EQ(featureSetTable1A().size(), 16u);
    EXPECT_EQ(featureSetTable1B().size(), 16u);
    EXPECT_EQ(featureSetTable2().size(), 16u);
}

TEST(PublishedSetsTest, Table1AContainsThePaperEntries)
{
    const auto set = featureSetTable1A();
    auto contains = [&](const char* text) {
        const FeatureSpec f = FeatureSpec::parse(text);
        for (const auto& g : set)
            if (g == f)
                return true;
        return false;
    };
    EXPECT_TRUE(contains("bias(16,0)"));
    EXPECT_TRUE(contains("burst(6,0)"));
    EXPECT_TRUE(contains("lastmiss(9,0)"));
    EXPECT_TRUE(contains("pc(7,14,43,11,0)"));
    // pc(17,6,20,0,1) appears twice in the published table.
    int count = 0;
    const FeatureSpec dup = FeatureSpec::parse("pc(17,6,20,0,1)");
    for (const auto& g : set)
        if (g == dup)
            ++count;
    EXPECT_EQ(count, 2);
}

TEST(PublishedSetsTest, AssociativitiesWithinSamplerRange)
{
    for (const auto& set :
         {featureSetTable1A(), featureSetTable1B(), featureSetTable2()})
        for (const auto& f : set) {
            EXPECT_GE(f.assoc, 1u);
            EXPECT_LE(f.assoc, kMaxFeatureAssoc);
        }
}

TEST(HelpersTest, UniformAssociativityAndWithout)
{
    const auto set = featureSetTable1A();
    const auto uni = withUniformAssociativity(set, 5);
    ASSERT_EQ(uni.size(), set.size());
    for (const auto& f : uni)
        EXPECT_EQ(f.assoc, 5u);
    const auto smaller = without(set, 3);
    EXPECT_EQ(smaller.size(), set.size() - 1);
    EXPECT_THROW(without(set, set.size()), FatalError);
    EXPECT_THROW(withUniformAssociativity(set, 0), FatalError);
    EXPECT_THROW(withUniformAssociativity(set, 19), FatalError);
}

TEST(HelpersTest, WithoutFeatureScalesThresholdsAndKeepsTheBase)
{
    MpppbConfig base = singleThreadMpppbConfig();
    base.thresholds.tauBypass = 100;
    base.thresholds.tau = {-61, 31, -113};
    base.thresholds.tauNoPromote = -47;
    const MpppbConfig before = base;

    const auto cut = withoutFeature(base, 3);
    EXPECT_EQ(cut.predictor.features,
              without(base.predictor.features, 3));
    // 16 -> 15 features: scale by 15/16, truncated toward zero
    // (93.75, -57.19, 29.06, -105.94, -44.06).
    EXPECT_EQ(cut.thresholds.tauBypass, 93);
    EXPECT_EQ(cut.thresholds.tau, (std::array<int, 3>{-57, 29, -105}));
    EXPECT_EQ(cut.thresholds.tauNoPromote, -44);
    EXPECT_EQ(cut.thresholds.pi, base.thresholds.pi);
    EXPECT_EQ(cut.substrate, base.substrate);

    // The base configuration is untouched.
    EXPECT_EQ(base.predictor.features, before.predictor.features);
    EXPECT_EQ(base.thresholds.tauBypass, 100);
    EXPECT_EQ(base.thresholds.tau, before.thresholds.tau);
    EXPECT_EQ(base.thresholds.tauNoPromote, -47);
    EXPECT_THROW(withoutFeature(base, base.predictor.features.size()),
                 FatalError);
}

TEST(HelpersTest, RandomFeaturesAreValidAndDiverse)
{
    Rng rng(11);
    std::set<std::string> kinds;
    for (int i = 0; i < 300; ++i) {
        const FeatureSpec f = FeatureSpec::random(rng);
        EXPECT_GE(f.assoc, 1u);
        EXPECT_LE(f.assoc, kMaxFeatureAssoc);
        EXPECT_GT(f.tableSize(), 0u);
        kinds.insert(f.toString().substr(0, f.toString().find('(')));
        // Round-trips through text.
        EXPECT_EQ(FeatureSpec::parse(f.toString()), f);
    }
    EXPECT_EQ(kinds.size(), 7u); // all seven kinds get generated
}

TEST(HelpersTest, PerturbKeepsValidity)
{
    Rng rng(13);
    FeatureSpec f = FeatureSpec::parse("pc(10,1,53,10,0)");
    for (int i = 0; i < 200; ++i) {
        f = f.perturbed(rng);
        EXPECT_GE(f.assoc, 1u);
        EXPECT_LE(f.assoc, kMaxFeatureAssoc);
        EXPECT_EQ(FeatureSpec::parse(f.toString()), f);
    }
}

TEST(HelpersTest, FormatFeatureSetOnePerLine)
{
    const auto text = formatFeatureSet(featureSetTable1A());
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 16);
    EXPECT_NE(text.find("bias(16,0)"), std::string::npos);
}

} // namespace
} // namespace mrp::core

/**
 * @file
 * Tests for the set-sampling arithmetic and the level statistics.
 */

#include <gtest/gtest.h>

#include "policy/sampling.hpp"
#include "stats/level_stats.hpp"

namespace mrp {
namespace {

TEST(SetSamplingTest, PicksEvenlySpacedSets)
{
    policy::SetSampling s(2048, 64);
    unsigned sampled = 0;
    for (std::uint32_t set = 0; set < 2048; ++set)
        if (s.sampled(set))
            ++sampled;
    EXPECT_EQ(sampled, 64u);
    EXPECT_TRUE(s.sampled(0));
    EXPECT_TRUE(s.sampled(32));
    EXPECT_FALSE(s.sampled(1));
    EXPECT_EQ(s.samplerSetOf(0), 0u);
    EXPECT_EQ(s.samplerSetOf(64), 2u);
    EXPECT_EQ(s.sampledSets(), 64u);
}

TEST(SetSamplingTest, SamplerSetIndicesAreDense)
{
    policy::SetSampling s(8192, 256);
    std::uint32_t next = 0;
    for (std::uint32_t set = 0; set < 8192; ++set) {
        if (s.sampled(set)) {
            EXPECT_EQ(s.samplerSetOf(set), next++);
        }
    }
    EXPECT_EQ(next, 256u);
}

TEST(SetSamplingTest, RejectsInvalidShapes)
{
    EXPECT_THROW(policy::SetSampling(2048, 0), FatalError);
    EXPECT_THROW(policy::SetSampling(64, 128), FatalError);
    EXPECT_THROW(policy::SetSampling(100, 33), FatalError);
    // 32 divides 96, but every third set is no mask.
    EXPECT_THROW(policy::SetSampling(96, 32), FatalError);
    EXPECT_NO_THROW(policy::SetSampling(96, 3));
    EXPECT_NO_THROW(policy::SetSampling(96, 96));
}

TEST(SetSamplingTest, PanicsOnUnsampledLookup)
{
    policy::SetSampling s(2048, 64);
    EXPECT_THROW(s.samplerSetOf(1), PanicError);
}

TEST(SetSamplingTest, PartialTagsSpreadAndAreStable)
{
    const auto t1 = policy::SetSampling::partialTag(0x1000);
    EXPECT_EQ(t1, policy::SetSampling::partialTag(0x1000));
    EXPECT_EQ(t1, policy::SetSampling::partialTag(0x103F)); // same block
    // Distinct blocks rarely collide in 16 bits.
    unsigned collisions = 0;
    for (Addr a = 0; a < 2000; ++a)
        if (policy::SetSampling::partialTag(a * 64) == t1)
            ++collisions;
    EXPECT_LE(collisions, 2u);
}

TEST(LevelStatsTest, AggregatesAndResets)
{
    stats::LevelStats s;
    s.demandAccesses = 10;
    s.demandHits = 7;
    s.demandMisses = 3;
    s.prefetchAccesses = 4;
    s.prefetchMisses = 2;
    s.writebackAccesses = 1;
    s.writebackMisses = 1;
    EXPECT_EQ(s.totalAccesses(), 15u);
    EXPECT_EQ(s.totalMisses(), 6u);
    s.reset();
    EXPECT_EQ(s.totalAccesses(), 0u);
    EXPECT_EQ(s.demandHits, 0u);
}

} // namespace
} // namespace mrp

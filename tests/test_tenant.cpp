/**
 * @file
 * Tests for the multi-tenant LLC subsystem: the way-partition map,
 * the tenancy validator, the QoS controller's deterministic resize
 * schedule, fixed-partition isolation (a tenant's measured outcome is
 * a pure function of its own stream, byte-identical under any
 * co-runner), the EHC baseline, the scenario builders, the MRC
 * partition advisor, and the tenancy wire/journal round trips.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mrc/partition_advisor.hpp"
#include "policy/ehc.hpp"
#include "queue/wire.hpp"
#include "runner/checkpoint.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/report.hpp"
#include "runner/scenarios.hpp"
#include "sim/multi_core.hpp"
#include "tenant/partition.hpp"
#include "tenant/qos.hpp"
#include "trace/source.hpp"
#include "trace/spec.hpp"
#include "trace/workloads.hpp"
#include "util/logging.hpp"

namespace mrp {
namespace {

// --------------------------------------------------------------------
// PartitionMap

TEST(PartitionMapTest, AssignsContiguousRangesInTenantOrder)
{
    const tenant::PartitionMap map({4, 2, 10}, 16);
    EXPECT_EQ(map.tenants(), 3u);
    EXPECT_EQ(map.maskOf(0), 0xFull);
    EXPECT_EQ(map.maskOf(1), 0x30ull);
    EXPECT_EQ(map.maskOf(2), 0xFFC0ull);
    EXPECT_EQ(map.waysOf(0), 4u);
    EXPECT_EQ(map.waysOf(2), 10u);
    EXPECT_EQ(map.tenantOfWay(0), 0u);
    EXPECT_EQ(map.tenantOfWay(5), 1u);
    EXPECT_EQ(map.tenantOfWay(15), 2u);
}

TEST(PartitionMapTest, MoveWayTakesDonorsHighestWay)
{
    tenant::PartitionMap map({8, 8}, 16);
    map.moveWay(1, 0);
    // Donor's highest way (15) changes hands; masks stay disjoint.
    EXPECT_EQ(map.waysOf(0), 9u);
    EXPECT_EQ(map.waysOf(1), 7u);
    EXPECT_EQ(map.tenantOfWay(15), 0u);
    EXPECT_EQ(map.tenantOfWay(14), 1u);
    EXPECT_EQ(map.maskOf(0) & map.maskOf(1), 0ull);
    EXPECT_EQ(map.maskOf(0) | map.maskOf(1), 0xFFFFull);
}

TEST(PartitionMapTest, RejectsBadGeometry)
{
    EXPECT_THROW(tenant::PartitionMap({8, 9}, 16), FatalError);
    EXPECT_THROW(tenant::PartitionMap({16, 0}, 16), FatalError);
    tenant::PartitionMap map({15, 1}, 16);
    EXPECT_THROW(map.moveWay(1, 0), PanicError); // donor at 1 way
}

TEST(TenancyConfigTest, DescribeInvalidCatchesMisconfiguration)
{
    tenant::TenancyConfig cfg;
    cfg.tenants.resize(2);
    cfg.tenants[0].ways = 8;
    cfg.tenants[1].ways = 8;
    EXPECT_TRUE(tenant::describeInvalid(cfg, 16, 2).empty());
    EXPECT_FALSE(tenant::describeInvalid(cfg, 16, 3).empty());
    EXPECT_FALSE(tenant::describeInvalid(cfg, 32, 2).empty());
    cfg.tenants[1].ways = 0;
    EXPECT_FALSE(tenant::describeInvalid(cfg, 8, 2).empty());
}

// --------------------------------------------------------------------
// QosController

TEST(QosControllerTest, GrantsAfterConsecutiveBreaches)
{
    tenant::TenancyConfig cfg;
    cfg.tenants.resize(2);
    cfg.tenants[0].ways = 8;
    cfg.tenants[0].sloMpki = 5.0;
    cfg.tenants[1].ways = 8;
    cfg.qos.enabled = true;
    cfg.qos.breachEpochs = 2;
    tenant::PartitionMap map({8, 8}, 16);
    tenant::QosController qos(cfg, map);

    const std::vector<double> breach = {9.0, 1.0};
    EXPECT_FALSE(qos.onEpoch(breach)); // streak 1: no move yet
    EXPECT_TRUE(qos.onEpoch(breach));  // streak 2: grant
    EXPECT_EQ(map.waysOf(0), 9u);
    EXPECT_EQ(map.waysOf(1), 7u);
    ASSERT_EQ(qos.resizes().size(), 1u);
    EXPECT_EQ(qos.resizes()[0].from, 1u);
    EXPECT_EQ(qos.resizes()[0].to, 0u);
}

TEST(QosControllerTest, ReturnsBorrowedWaysWhenCalm)
{
    tenant::TenancyConfig cfg;
    cfg.tenants.resize(2);
    cfg.tenants[0].ways = 8;
    cfg.tenants[0].sloMpki = 5.0;
    cfg.tenants[1].ways = 8;
    cfg.qos.enabled = true;
    cfg.qos.breachEpochs = 1;
    cfg.qos.calmEpochs = 2;
    cfg.qos.hysteresisFrac = 0.1;
    tenant::PartitionMap map({8, 8}, 16);
    tenant::QosController qos(cfg, map);

    EXPECT_TRUE(qos.onEpoch(std::vector<double>{9.0, 1.0}));
    EXPECT_EQ(map.waysOf(0), 9u);

    // Two calm epochs (below slo * 0.9 = 4.5) return the way.
    const std::vector<double> calm = {1.0, 1.0};
    EXPECT_FALSE(qos.onEpoch(calm));
    EXPECT_TRUE(qos.onEpoch(calm));
    EXPECT_EQ(map.waysOf(0), 8u);
    EXPECT_EQ(map.waysOf(1), 8u);

    // In-band epochs (between 4.5 and 5.0) reset both streaks: no
    // further movement however long the series runs.
    const std::vector<double> band = {4.7, 1.0};
    for (int i = 0; i < 6; ++i)
        EXPECT_FALSE(qos.onEpoch(band));
    EXPECT_EQ(map.waysOf(0), 8u);
}

TEST(QosControllerTest, DonorNeverShrinksBelowMinWays)
{
    tenant::TenancyConfig cfg;
    cfg.tenants.resize(2);
    cfg.tenants[0].ways = 14;
    cfg.tenants[0].sloMpki = 5.0;
    cfg.tenants[1].ways = 2;
    cfg.qos.enabled = true;
    cfg.qos.breachEpochs = 1;
    cfg.qos.minWays = 1;
    tenant::PartitionMap map({14, 2}, 16);
    tenant::QosController qos(cfg, map);

    const std::vector<double> breach = {9.0, 1.0};
    EXPECT_TRUE(qos.onEpoch(breach));  // 15/1
    EXPECT_FALSE(qos.onEpoch(breach)); // donor at minWays: no move
    EXPECT_EQ(map.waysOf(0), 15u);
    EXPECT_EQ(map.waysOf(1), 1u);
}

// --------------------------------------------------------------------
// Partitioned simulation

sim::MultiCoreConfig
smallTenantConfig(std::uint32_t ways0, std::uint32_t ways1)
{
    sim::MultiCoreConfig cfg;
    cfg.hierarchy.llcBytes = 256 * 1024;
    cfg.warmupInstructions = 40000;
    cfg.measureCycles = 60000;
    cfg.tenancy.tenants.resize(2);
    cfg.tenancy.tenants[0].ways = ways0;
    cfg.tenancy.tenants[1].ways = ways1;
    return cfg;
}

bool
sameOutcome(const sim::TenantOutcome& a, const sim::TenantOutcome& b)
{
    return a.waysInitial == b.waysInitial &&
           a.waysFinal == b.waysFinal &&
           a.demandMisses == b.demandMisses &&
           a.instructions == b.instructions && a.mpki == b.mpki;
}

TEST(TenantSimTest, FixedPartitionIsolatesTenantFromCoRunner)
{
    const auto victim = trace::makeSuiteTrace(1, 120000);
    const auto noisy = trace::makeSuiteTrace(3, 120000);
    const auto quiet = trace::makeSuiteTrace(5, 120000);
    const auto cfg = smallTenantConfig(10, 6);

    trace::MaterializedTraceSource v1(victim), a1(noisy);
    const auto ra = sim::runMultiCore(
        std::vector<trace::TraceSource*>{&v1, &a1},
        sim::PolicyRegistry::make("LRU"), cfg);
    trace::MaterializedTraceSource v2(victim), a2(quiet);
    const auto rb = sim::runMultiCore(
        std::vector<trace::TraceSource*>{&v2, &a2},
        sim::PolicyRegistry::make("LRU"), cfg);

    ASSERT_EQ(ra.tenants.size(), 2u);
    ASSERT_EQ(rb.tenants.size(), 2u);
    // Tenant 0's measured outcome must not depend on the co-runner.
    EXPECT_TRUE(sameOutcome(ra.tenants[0], rb.tenants[0]));
    EXPECT_EQ(ra.ipc[0], rb.ipc[0]);
    // The co-runners genuinely differ, so the runs were not trivially
    // identical.
    EXPECT_FALSE(sameOutcome(ra.tenants[1], rb.tenants[1]));
}

TEST(TenantSimTest, SameStreamTenantsWithPrivateStateMatchExactly)
{
    // Both tenants replay the same record sequence (same addresses!)
    // under an equal split. Owner-tagged blocks and per-tenant policy
    // state make their outcomes exactly equal — any cross-tenant hit
    // or shared predictor update would break the symmetry.
    const auto tr = trace::makeSuiteTrace(2, 120000);
    trace::MaterializedTraceSource s0(tr), s1(tr);
    const auto r = sim::runMultiCore(
        std::vector<trace::TraceSource*>{&s0, &s1},
        sim::PolicyRegistry::make("MPPPB-MC"), smallTenantConfig(8, 8));
    ASSERT_EQ(r.tenants.size(), 2u);
    EXPECT_EQ(r.tenants[0].demandMisses, r.tenants[1].demandMisses);
    EXPECT_EQ(r.tenants[0].instructions, r.tenants[1].instructions);
    EXPECT_EQ(r.ipc[0], r.ipc[1]);
}

TEST(TenantSimTest, UnpartitionedMixSeesInterference)
{
    // Control experiment: without a partition the same co-runner swap
    // DOES move the victim's misses — otherwise the isolation test
    // above would be vacuous.
    const auto victim = trace::makeSuiteTrace(1, 120000);
    const auto noisy = trace::makeSuiteTrace(3, 120000);
    const auto quiet = trace::makeSuiteTrace(5, 120000);
    sim::MultiCoreConfig cfg;
    cfg.hierarchy.llcBytes = 256 * 1024;
    cfg.warmupInstructions = 40000;
    cfg.measureCycles = 60000;

    trace::MaterializedTraceSource v1(victim), a1(noisy);
    const auto ra = sim::runMultiCore(
        std::vector<trace::TraceSource*>{&v1, &a1},
        sim::PolicyRegistry::make("LRU"), cfg);
    trace::MaterializedTraceSource v2(victim), a2(quiet);
    const auto rb = sim::runMultiCore(
        std::vector<trace::TraceSource*>{&v2, &a2},
        sim::PolicyRegistry::make("LRU"), cfg);
    EXPECT_TRUE(ra.tenants.empty());
    EXPECT_NE(ra.llcDemandMisses, rb.llcDemandMisses);
}

TEST(TenantSimTest, QosScheduleIsDeterministicAcrossReruns)
{
    const auto hungry = trace::makeSuiteTrace(3, 150000);
    const auto meek = trace::makeSuiteTrace(5, 150000);
    auto cfg = smallTenantConfig(4, 12);
    cfg.tenancy.tenants[0].sloMpki = 0.05; // hard to meet: forces QoS
    cfg.tenancy.qos.enabled = true;
    cfg.tenancy.qos.epochInstructions = 10000;
    cfg.tenancy.qos.breachEpochs = 1;

    auto once = [&] {
        trace::MaterializedTraceSource a(hungry), b(meek);
        return sim::runMultiCore(
            std::vector<trace::TraceSource*>{&a, &b},
            sim::PolicyRegistry::make("LRU"), cfg);
    };
    const auto r1 = once();
    const auto r2 = once();
    EXPECT_FALSE(r1.qosSchedule.empty());
    ASSERT_EQ(r1.qosSchedule.size(), r2.qosSchedule.size());
    for (std::size_t i = 0; i < r1.qosSchedule.size(); ++i) {
        EXPECT_EQ(r1.qosSchedule[i].epoch, r2.qosSchedule[i].epoch);
        EXPECT_EQ(r1.qosSchedule[i].from, r2.qosSchedule[i].from);
        EXPECT_EQ(r1.qosSchedule[i].to, r2.qosSchedule[i].to);
    }
    EXPECT_EQ(r1.tenants[0].waysFinal, r2.tenants[0].waysFinal);
    EXPECT_GT(r1.tenants[0].waysFinal, r1.tenants[0].waysInitial);
}

TEST(TenantSimTest, ReportsAreByteIdenticalAcrossJobs)
{
    auto cfg = smallTenantConfig(10, 6);
    cfg.tenancy.tenants[0].sloMpki = 0.05;
    cfg.tenancy.qos.enabled = true;
    cfg.tenancy.qos.epochInstructions = 10000;
    cfg.tenancy.qos.breachEpochs = 1;

    std::vector<runner::RunRequest> batch;
    for (const char* p : {"LRU", "SRRIP", "MPPPB-MC"}) {
        batch.push_back(runner::RunRequest::multiCore(
            std::vector<trace::TraceSpec>{
                trace::TraceSpec::suite(1, 120000),
                trace::TraceSpec::suite(3, 120000)},
            runner::PolicySpec::byName(p), cfg));
    }
    const auto set1 = runner::ExperimentRunner(1).run(batch);
    const auto set2 = runner::ExperimentRunner(2).run(batch);
    EXPECT_EQ(runner::toJson(set1), runner::toJson(set2));
    EXPECT_EQ(runner::toCsv(set1), runner::toCsv(set2));
    // Tenancy fields actually appear in both report formats.
    EXPECT_NE(runner::toJson(set1).find("\"tenants\""),
              std::string::npos);
    EXPECT_NE(runner::toCsv(set1).find("tenant_ways_final"),
              std::string::npos);
}

// --------------------------------------------------------------------
// EHC baseline

TEST(EhcTest, RegisteredInPolicyRegistryAndRuns)
{
    const auto tr = trace::makeSuiteTrace(0, 80000);
    trace::MaterializedTraceSource src(tr);
    sim::SingleCoreConfig cfg;
    cfg.hierarchy.llcBytes = 256 * 1024;
    const auto r =
        sim::runSingleCore(src, sim::PolicyRegistry::make("EHC"), cfg);
    EXPECT_EQ(r.policy, "EHC");
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.llcDemandAccesses, 0u);
}

TEST(EhcTest, LearnsExpectedHitsPerSignature)
{
    const cache::CacheGeometry geom(64 * 1024, 4);
    policy::EhcPolicy ehc(geom);
    const Pc pc = 0x400bed;
    cache::AccessInfo info;
    info.pc = pc;
    info.core = 0;

    // Fill way 0 of set 0, hit it 3 times, then evict: the EWMA table
    // must move toward 3 expected hits for this PC's signature.
    info.addr = 0;
    ehc.onFill(info, 0, 0);
    for (int h = 0; h < 3; ++h)
        ehc.onHit(info, 0, 0);
    ehc.onEvict(0, 0);
    const auto after_one = ehc.expectedHitsOf(pc);
    EXPECT_GT(after_one, 0u);

    for (int round = 0; round < 20; ++round) {
        ehc.onFill(info, 0, 0);
        for (int h = 0; h < 3; ++h)
            ehc.onHit(info, 0, 0);
        ehc.onEvict(0, 0);
    }
    // Converged near 3 hits; the table stores 4 fraction bits, so the
    // raw value sits near 3 << 4 = 48.
    EXPECT_GE(ehc.expectedHitsOf(pc), 2u << 4);
    EXPECT_LE(ehc.expectedHitsOf(pc), 4u << 4);
}

TEST(EhcTest, VictimRespectsWayMask)
{
    const cache::CacheGeometry geom(64 * 1024, 8);
    policy::EhcPolicy ehc(geom);
    cache::AccessInfo info;
    for (std::uint32_t w = 0; w < 8; ++w)
        ehc.onFill(info, 0, w);
    const cache::WayMask mask = 0b11000000;
    for (int i = 0; i < 4; ++i) {
        const auto w = ehc.victimWayIn(info, 0, mask);
        EXPECT_TRUE(mask & (cache::WayMask{1} << w));
    }
}

// --------------------------------------------------------------------
// Scenario builders

TEST(ScenarioTest, NoisyNeighborBatchShape)
{
    runner::ScenarioConfig cfg;
    cfg.sim.hierarchy.llcWays = 16;
    cfg.victimSloMpki = 2.0;
    cfg.qos = true;
    const auto batch = runner::noisyNeighborBatch(
        trace::TraceSpec::suite(1, 100000),
        trace::TraceSpec::suite(3, 100000), {8, 12}, cfg);

    ASSERT_EQ(batch.size(), 4u); // shared + 2 splits + qos
    EXPECT_EQ(batch[0].label, "shared");
    const auto& t1 = std::get<sim::MultiCoreConfig>(batch[1].config);
    EXPECT_EQ(batch[1].label, "part:8/8");
    EXPECT_EQ(t1.tenancy.tenants[0].ways, 8u);
    const auto& t3 = std::get<sim::MultiCoreConfig>(batch[3].config);
    EXPECT_EQ(batch[3].label, "qos:12/4");
    EXPECT_TRUE(t3.tenancy.qos.enabled);
    EXPECT_EQ(t3.tenancy.tenants[0].sloMpki, 2.0);

    EXPECT_THROW(runner::noisyNeighborBatch(
                     trace::TraceSpec::suite(1, 100000),
                     trace::TraceSpec::suite(3, 100000), {16}, cfg),
                 FatalError);
}

TEST(ScenarioTest, MixCampaignValidatesArity)
{
    runner::ScenarioConfig cfg;
    cfg.sim.hierarchy.llcWays = 16;
    tenant::TenancyConfig t;
    t.tenants.resize(2);
    t.tenants[0].ways = 8;
    t.tenants[1].ways = 8;

    const std::vector<std::vector<trace::TraceSpec>> mixes = {
        {trace::TraceSpec::suite(1, 100000),
         trace::TraceSpec::suite(2, 100000)},
        {trace::TraceSpec::suite(3, 100000),
         trace::TraceSpec::suite(4, 100000)}};
    const auto batch = runner::mixCampaign(mixes, t, cfg);
    ASSERT_EQ(batch.size(), 2u);
    for (const auto& r : batch) {
        const auto& c = std::get<sim::MultiCoreConfig>(r.config);
        EXPECT_EQ(c.tenancy.tenants.size(), 2u);
    }

    const std::vector<std::vector<trace::TraceSpec>> triple = {
        {trace::TraceSpec::suite(1, 100000),
         trace::TraceSpec::suite(2, 100000),
         trace::TraceSpec::suite(3, 100000)}};
    EXPECT_THROW(runner::mixCampaign(triple, t, cfg), FatalError);
}

// --------------------------------------------------------------------
// MRC partition advisor

mrc::MrcProfile
syntheticProfile(const std::string& name,
                 std::vector<std::pair<Addr, double>> pts)
{
    mrc::MrcProfile p;
    p.benchmark = name;
    for (const auto& [bytes, ratio] : pts)
        p.points.push_back({bytes, ratio});
    return p;
}

TEST(PartitionAdvisorTest, KneeFavorsCacheHungryTenant)
{
    // Tenant a converts capacity into hits up to 512 KB; tenant b is
    // a stream whose curve never improves.
    const std::vector<mrc::MrcProfile> profiles = {
        syntheticProfile("hungry", {{64 << 10, 0.9},
                                    {128 << 10, 0.6},
                                    {256 << 10, 0.3},
                                    {512 << 10, 0.1}}),
        syntheticProfile("stream", {{64 << 10, 0.95},
                                    {128 << 10, 0.95},
                                    {256 << 10, 0.95},
                                    {512 << 10, 0.95}})};
    mrc::PartitionAdvisorConfig cfg;
    cfg.llcBytes = 512 << 10;
    cfg.llcWays = 16;
    const auto advice = mrc::suggestPartition(profiles, cfg);
    ASSERT_EQ(advice.tenants.size(), 2u);
    EXPECT_EQ(advice.tenants[0].kneeBytes, Addr{512 << 10});
    EXPECT_EQ(advice.tenants[1].kneeBytes, Addr{64 << 10});
    EXPECT_GT(advice.tenants[0].ways, advice.tenants[1].ways);
    EXPECT_EQ(advice.tenants[0].ways + advice.tenants[1].ways, 16u);
    EXPECT_GE(advice.tenants[1].ways, cfg.minWays);
    EXPECT_EQ(advice.partitionFlag(),
              std::to_string(advice.tenants[0].ways) + "," +
                  std::to_string(advice.tenants[1].ways));
}

TEST(PartitionAdvisorTest, EqualCurvesSplitEvenlyAndDeterministically)
{
    const auto curve = syntheticProfile("x", {{64 << 10, 0.5},
                                              {128 << 10, 0.2}});
    const std::vector<mrc::MrcProfile> profiles = {curve, curve,
                                                   curve, curve};
    mrc::PartitionAdvisorConfig cfg;
    cfg.llcBytes = 512 << 10;
    cfg.llcWays = 16;
    const auto a = mrc::suggestPartition(profiles, cfg);
    const auto b = mrc::suggestPartition(profiles, cfg);
    EXPECT_EQ(a.toJson(cfg), b.toJson(cfg));
    for (const auto& t : a.tenants)
        EXPECT_EQ(t.ways, 4u);
}

TEST(PartitionAdvisorTest, RejectsInfeasibleGeometry)
{
    const auto curve = syntheticProfile("x", {{64 << 10, 0.5}});
    mrc::PartitionAdvisorConfig cfg;
    cfg.llcBytes = 512 << 10;
    cfg.llcWays = 2;
    cfg.minWays = 2;
    EXPECT_THROW(
        mrc::suggestPartition({curve, curve, curve}, cfg), FatalError);
    EXPECT_THROW(mrc::suggestPartition({}, cfg), FatalError);
}

// --------------------------------------------------------------------
// Wire & journal round trips

TEST(TenantWireTest, TenancyConfigSurvivesRequestRoundTrip)
{
    sim::MultiCoreConfig cfg;
    cfg.tenancy.tenants.resize(2);
    cfg.tenancy.tenants[0].ways = 10;
    cfg.tenancy.tenants[0].sloMpki = 2.5;
    cfg.tenancy.tenants[1].ways = 6;
    cfg.tenancy.qos.enabled = true;
    cfg.tenancy.qos.epochInstructions = 12345;
    cfg.tenancy.qos.breachEpochs = 3;
    cfg.tenancy.qos.calmEpochs = 7;
    cfg.tenancy.qos.hysteresisFrac = 0.25;
    cfg.tenancy.qos.minWays = 2;

    const auto req = runner::RunRequest::multiCore(
        std::vector<trace::TraceSpec>{
            trace::TraceSpec::suite(1, 100000),
            trace::TraceSpec::suite(2, 100000)},
        runner::PolicySpec::byName("LRU"), cfg);
    const auto back = queue::requestFromJson(queue::requestJson(req),
                                             "test request");
    const auto& c = std::get<sim::MultiCoreConfig>(back.config);
    ASSERT_EQ(c.tenancy.tenants.size(), 2u);
    EXPECT_EQ(c.tenancy.tenants[0].ways, 10u);
    EXPECT_EQ(c.tenancy.tenants[0].sloMpki, 2.5);
    EXPECT_EQ(c.tenancy.tenants[1].ways, 6u);
    EXPECT_TRUE(c.tenancy.qos.enabled);
    EXPECT_EQ(c.tenancy.qos.epochInstructions, 12345u);
    EXPECT_EQ(c.tenancy.qos.breachEpochs, 3u);
    EXPECT_EQ(c.tenancy.qos.calmEpochs, 7u);
    EXPECT_EQ(c.tenancy.qos.hysteresisFrac, 0.25);
    EXPECT_EQ(c.tenancy.qos.minWays, 2u);

    // Non-tenant requests keep the pre-tenancy wire bytes (no
    // "tenancy" key at all).
    const auto plain = runner::RunRequest::multiCore(
        std::vector<trace::TraceSpec>{
            trace::TraceSpec::suite(1, 100000),
            trace::TraceSpec::suite(2, 100000)},
        runner::PolicySpec::byName("LRU"), sim::MultiCoreConfig{});
    EXPECT_EQ(queue::requestJson(plain).find("tenancy"),
              std::string::npos);
}

TEST(TenantJournalTest, TenantOutcomeSurvivesJournalRoundTrip)
{
    runner::RunResult r;
    r.index = 3;
    r.benchmark = "a+b";
    r.policy = "LRU";
    r.label = "mix";
    r.multiCore = true;
    r.ipc = 1.5;
    r.tenants.resize(2);
    r.tenants[0] = {10, 12, 777, 123456, 6.293, 2.5};
    r.tenants[1] = {6, 4, 9999, 123000, 81.292, 0.0};
    r.qosSchedule = {{4, 1, 0}, {9, 1, 0}};

    const auto back = runner::resultFromJson(runner::resultJson(r));
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(back->tenants.size(), 2u);
    EXPECT_EQ(back->tenants[0].waysInitial, 10u);
    EXPECT_EQ(back->tenants[0].waysFinal, 12u);
    EXPECT_EQ(back->tenants[0].demandMisses, 777u);
    EXPECT_EQ(back->tenants[0].instructions, 123456u);
    EXPECT_EQ(back->tenants[0].mpki, 6.293);
    EXPECT_EQ(back->tenants[0].sloMpki, 2.5);
    EXPECT_EQ(back->tenants[1].waysFinal, 4u);
    EXPECT_EQ(back->tenants[1].sloMpki, 0.0);
    ASSERT_EQ(back->qosSchedule.size(), 2u);
    EXPECT_EQ(back->qosSchedule[0].epoch, 4u);
    EXPECT_EQ(back->qosSchedule[1].epoch, 9u);
    EXPECT_EQ(back->qosSchedule[1].from, 1u);
    EXPECT_EQ(back->qosSchedule[1].to, 0u);

    // Non-tenant results journal without any tenant keys.
    runner::RunResult plain;
    plain.benchmark = "a";
    plain.policy = "LRU";
    EXPECT_EQ(runner::resultJson(plain).find("tenant"),
              std::string::npos);
}

} // namespace
} // namespace mrp

/**
 * @file
 * End-to-end telemetry tests: a telemetry-enabled run must (a) not
 * perturb the simulation, (b) produce metrics that reconcile exactly
 * with the driver's LevelStats-derived result fields, and (c) flow
 * through the parallel runner into the JSON/CSV/metrics/trace
 * exports deterministically.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "policy/sdbp.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/report.hpp"
#include "sim/multi_core.hpp"
#include "sim/roc_probe.hpp"
#include "sim/single_core.hpp"
#include "telemetry/export.hpp"
#include "telemetry/session.hpp"
#include "trace/builder.hpp"
#include "trace/source.hpp"
#include "trace/spec.hpp"
#include "trace/workloads.hpp"

namespace mrp {
namespace {

const telemetry::MetricSnapshot&
metric(const telemetry::RunTelemetry& t, const std::string& name)
{
    const auto* m = t.finalSnapshot.find(name);
    EXPECT_NE(m, nullptr) << "missing metric " << name;
    static const telemetry::MetricSnapshot empty{};
    return m ? *m : empty;
}

sim::SingleCoreConfig
telemetryConfig(std::uint64_t epoch = 10000)
{
    sim::SingleCoreConfig cfg;
    cfg.telemetry.enabled = true;
    cfg.telemetry.epochAccesses = epoch;
    return cfg;
}

TEST(TelemetryIntegrationTest, DisabledRunCarriesNoTelemetry)
{
    const auto tr = trace::makeSuiteTrace(4, 120000); // gups.fit
    trace::MaterializedTraceSource src(tr);
    const auto r =
        sim::runSingleCore(src, sim::PolicyRegistry::make("MPPPB"), {});
    EXPECT_EQ(r.telemetry, nullptr);
}

TEST(TelemetryIntegrationTest, TelemetryDoesNotPerturbTheRun)
{
    const auto tr = trace::makeSuiteTrace(4, 120000);
    const auto factory = sim::PolicyRegistry::make("MPPPB");
    // One source serves both runs: the driver rewinds at entry.
    trace::MaterializedTraceSource src(tr);
    const auto plain = sim::runSingleCore(src, factory, {});
    const auto instrumented =
        sim::runSingleCore(src, factory, telemetryConfig());
    EXPECT_EQ(plain.ipc, instrumented.ipc);
    EXPECT_EQ(plain.mpki, instrumented.mpki);
    EXPECT_EQ(plain.llcDemandAccesses,
              instrumented.llcDemandAccesses);
    EXPECT_EQ(plain.llcDemandMisses, instrumented.llcDemandMisses);
    EXPECT_EQ(plain.llcBypasses, instrumented.llcBypasses);
    ASSERT_NE(instrumented.telemetry, nullptr);
}

TEST(TelemetryIntegrationTest, MetricsReconcileWithLevelStats)
{
    const auto tr = trace::makeSuiteTrace(0, 150000); // scan.a
    trace::MaterializedTraceSource src(tr);
    const auto r = sim::runSingleCore(
        src, sim::PolicyRegistry::make("MPPPB"), telemetryConfig());
    ASSERT_NE(r.telemetry, nullptr);
    const auto& t = *r.telemetry;

    // The llc.* counters mirror the LevelStats-derived result fields.
    EXPECT_EQ(metric(t, "llc.demand_accesses").counter,
              r.llcDemandAccesses);
    EXPECT_EQ(metric(t, "llc.demand_misses").counter,
              r.llcDemandMisses);
    EXPECT_EQ(metric(t, "llc.bypasses").counter, r.llcBypasses);
    EXPECT_EQ(metric(t, "llc.demand_accesses").counter,
              metric(t, "llc.demand_hits").counter +
                  metric(t, "llc.demand_misses").counter);

    // Every observed LLC access is either a reuse or a cold touch.
    const auto& reuse = metric(t, "llc.reuse_distance").histogram;
    const std::uint64_t observed =
        metric(t, "llc.demand_accesses").counter +
        metric(t, "llc.prefetch_accesses").counter +
        metric(t, "llc.writeback_accesses").counter;
    EXPECT_EQ(reuse.total + metric(t, "llc.reuse.cold_accesses").counter,
              observed);
    EXPECT_EQ(t.accesses, observed);
    EXPECT_GE(t.epochs.size(), 1u);

    // MPPPB introspection: per-feature weight histograms, confidence
    // split by hit/miss, placement decision counts.
    unsigned feature_hists = 0;
    for (const auto& m : t.finalSnapshot.metrics)
        if (m.name.rfind("predictor.feature.", 0) == 0 &&
            m.kind == telemetry::MetricSnapshot::Kind::Histogram)
            ++feature_hists;
    EXPECT_EQ(feature_hists, 16u); // Table 1(a) feature count
    const auto& hit = metric(t, "predictor.confidence.hit").histogram;
    const auto& miss =
        metric(t, "predictor.confidence.miss").histogram;
    EXPECT_GT(hit.total + miss.total, 0u);
    const std::uint64_t placements =
        metric(t, "mpppb.placement.pi1").counter +
        metric(t, "mpppb.placement.pi2").counter +
        metric(t, "mpppb.placement.pi3").counter +
        metric(t, "mpppb.placement.mru").counter;
    EXPECT_GT(placements, 0u);
    EXPECT_LE(placements, metric(t, "llc.fills").counter);
}

TEST(TelemetryIntegrationTest, MultiCoreRunCarriesTelemetry)
{
    sim::MultiCoreConfig cfg;
    cfg.warmupInstructions = 300000;
    cfg.measureCycles = 120000;
    cfg.telemetry.enabled = true;
    cfg.telemetry.epochAccesses = 10000;
    const auto t0 = trace::makeSuiteTrace(7, 200000);
    const auto t1 = trace::makeSuiteTrace(9, 200000);
    const auto t2 = trace::makeSuiteTrace(14, 200000);
    const auto t3 = trace::makeSuiteTrace(25, 200000);
    trace::MaterializedTraceSource s0(t0), s1(t1), s2(t2), s3(t3);
    const auto r = sim::runMultiCore(
        {&s0, &s1, &s2, &s3}, sim::PolicyRegistry::make("MPPPB-MC"), cfg);
    ASSERT_NE(r.telemetry, nullptr);
    const auto& t = *r.telemetry;
    EXPECT_EQ(metric(t, "llc.demand_misses").counter,
              r.llcDemandMisses);
    const auto& reuse = metric(t, "llc.reuse_distance").histogram;
    EXPECT_EQ(reuse.total + metric(t, "llc.reuse.cold_accesses").counter,
              t.accesses);
}

TEST(TelemetryIntegrationTest, RunnerReportsEmbedMetrics)
{
    const auto tr = trace::makeSuiteTrace(0, 150000);
    std::vector<runner::RunRequest> batch;
    batch.push_back(runner::RunRequest::singleCore(
        trace::TraceSpec::borrowed(tr),
        runner::PolicySpec::byName("LRU"), telemetryConfig()));
    batch.push_back(runner::RunRequest::singleCore(
        trace::TraceSpec::borrowed(tr),
        runner::PolicySpec::byName("MPPPB"), telemetryConfig()));

    const runner::ExperimentRunner pool(2);
    const auto set = pool.run(batch);
    ASSERT_EQ(set.results.size(), 2u);
    ASSERT_NE(set.results[0].telemetry, nullptr);
    ASSERT_NE(set.results[1].telemetry, nullptr);

    const std::string json = runner::toJson(set);
    EXPECT_NE(json.find("\"metrics\": {"), std::string::npos);
    EXPECT_NE(json.find("\"llc.reuse_distance\""), std::string::npos);
    const std::string csv = runner::toCsv(set);
    EXPECT_NE(csv.find("# metrics\nindex,metric,value\n"),
              std::string::npos);
    EXPECT_NE(csv.find("1,mpppb.placement.pi1,"), std::string::npos);

    const std::string metrics = runner::toMetricsJson(set);
    EXPECT_NE(metrics.find("\"policy\": \"MPPPB\""),
              std::string::npos);
    const std::string trace_doc = runner::toTraceJson(set);
    EXPECT_NE(trace_doc.find("\"traceEvents\": ["), std::string::npos);
    EXPECT_NE(trace_doc.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(trace_doc.find("\"pid\": 1"), std::string::npos);

    // Determinism: a single-worker execution of the same batch must
    // serialize to the same bytes, telemetry included.
    const runner::ExperimentRunner serial(1);
    const auto set1 = serial.run(batch);
    EXPECT_EQ(runner::toJson(set1), json);
    EXPECT_EQ(runner::toCsv(set1), csv);
    EXPECT_EQ(runner::toMetricsJson(set1), metrics);
    EXPECT_EQ(runner::toTraceJson(set1), trace_doc);
}

/**
 * A shared mix resets the hierarchy's statistics at the end of warmup
 * and attaches telemetry there, so DRAM traffic must be counted from
 * that point like every other metric: under LRU (no bypass) each DRAM
 * write is a dirty LLC eviction and each DRAM read a fill.
 */
TEST(TelemetryIntegrationTest, SharedMixMemTrafficCoversOnlyTheWindow)
{
    const auto t0 = trace::makeSuiteTrace(25, 150000); // gups.2x
    const auto t1 = trace::makeSuiteTrace(7, 150000);  // thrash.2x
    trace::MaterializedTraceSource s0(t0), s1(t1);
    sim::MultiCoreConfig cfg;
    cfg.hierarchy.llcBytes = 256 * 1024;
    cfg.warmupInstructions = 60000;
    cfg.measureCycles = 60000;
    cfg.telemetry.enabled = true;
    cfg.telemetry.epochAccesses = 5000;
    const auto r = sim::runMultiCore(
        std::vector<trace::TraceSource*>{&s0, &s1},
        sim::PolicyRegistry::make("LRU"), cfg);
    ASSERT_NE(r.telemetry, nullptr);
    const auto& t = *r.telemetry;
    ASSERT_EQ(metric(t, "llc.bypasses").counter, 0u);
    ASSERT_GT(metric(t, "llc.dirty_evictions").counter, 0u);
    EXPECT_EQ(metric(t, "mem.dram_writes").gauge,
              static_cast<double>(
                  metric(t, "llc.dirty_evictions").counter));
    EXPECT_LE(metric(t, "mem.dram_reads").gauge,
              static_cast<double>(metric(t, "llc.fills").counter));
}

/**
 * An epoch snapshot is taken inside the access that closes the epoch,
 * before that access's fill is counted: in a run where every LLC access
 * is a demand miss, the first epoch holds epochAccesses misses and one
 * fill (and one DRAM read) fewer.
 */
TEST(TelemetryIntegrationTest, EpochSnapshotPrecedesTheClosingFill)
{
    trace::TraceBuilder b("cold", 0x400000, 1);
    for (Addr a = 0; a < 40000; ++a) {
        b.load(0, 0x10000000 + a * 64);
        b.pad(3);
    }
    const trace::Trace tr = std::move(b).build();
    trace::MaterializedTraceSource src(tr);
    sim::SingleCoreConfig cfg = telemetryConfig(5000);
    cfg.hierarchy.prefetchEnabled = false;
    const auto r =
        sim::runSingleCore(src, sim::PolicyRegistry::make("LRU"), cfg);
    ASSERT_NE(r.telemetry, nullptr);
    ASSERT_GE(r.telemetry->epochs.size(), 2u);
    const auto& first = r.telemetry->epochs[0].snapshot;
    EXPECT_EQ(first.find("llc.demand_misses")->counter, 5000u);
    EXPECT_EQ(first.find("llc.fills")->counter, 4999u);
    // The closing access's DRAM read is counted after it returns.
    EXPECT_EQ(first.find("mem.dram_reads")->gauge, 4999.0);
}

/**
 * The golden batch: single-core LRU, MPPPB and MIN plus one
 * shared mix, every run at 5000 LLC accesses per epoch.
 */
runner::RunSet
goldenBatch()
{
    const auto scan = trace::makeSuiteTrace(9, 300000); // scan.a
    const auto gups = trace::makeSuiteTrace(4, 300000); // gups.fit
    std::vector<runner::RunRequest> batch;
    for (const char* policy : {"LRU", "MPPPB", "MIN"})
        batch.push_back(runner::RunRequest::singleCore(
            trace::TraceSpec::borrowed(scan),
            runner::PolicySpec::byName(policy), telemetryConfig(5000)));
    sim::MultiCoreConfig mcfg;
    mcfg.warmupInstructions = 100000;
    mcfg.measureCycles = 60000;
    mcfg.telemetry.enabled = true;
    mcfg.telemetry.epochAccesses = 5000;
    batch.push_back(runner::RunRequest::multiCore(
        std::vector<trace::TraceSpec>{trace::TraceSpec::borrowed(scan),
                                      trace::TraceSpec::borrowed(gups)},
        runner::PolicySpec::byName("MPPPB-MC"), mcfg));
    return runner::ExperimentRunner(1).run(batch);
}

/** Compare @p got with tests/golden/@p file (MRP_UPDATE_GOLDEN=1
 * rewrites it instead). */
void
expectGolden(const std::string& got, const std::string& file)
{
    const auto path =
        std::filesystem::path(__FILE__).parent_path() / "golden" / file;
    if (std::getenv("MRP_UPDATE_GOLDEN") != nullptr) {
        std::ofstream(path) << got;
        return;
    }
    std::ifstream f(path);
    ASSERT_TRUE(f) << "missing golden file: " << path
                   << " (regenerate with MRP_UPDATE_GOLDEN=1)";
    std::ostringstream want;
    want << f.rdbuf();
    EXPECT_EQ(got, want.str()) << "telemetry export drifted from "
                               << path;
}

TEST(TelemetryIntegrationTest, ExportsMatchGoldenFiles)
{
    const auto set = goldenBatch();
    for (const auto& r : set.results)
        ASSERT_TRUE(r.error.empty()) << r.error;
    expectGolden(runner::toMetricsJson(set), "telemetry_metrics.json");
    expectGolden(runner::toTraceJson(set), "telemetry_trace.json");
}

/**
 * A passive probe and telemetry attach to the same run without
 * disturbing each other: the probe's ROC curve matches a probe-only
 * run, and the telemetry matches a telemetry-only run byte for byte.
 */
TEST(TelemetryIntegrationTest, ObserverAndTelemetryCoexist)
{
    const auto tr = trace::makeSuiteTrace(10, 400000); // scan.b
    trace::MaterializedTraceSource src(tr);
    const auto lru = sim::PolicyRegistry::make("LRU");
    const sim::SingleCoreConfig plain_cfg;
    const cache::CacheGeometry geom(plain_cfg.hierarchy.llcBytes,
                                    plain_cfg.hierarchy.llcWays);
    const auto probe = [&] {
        std::vector<std::unique_ptr<policy::ReusePredictor>> preds;
        preds.push_back(
            std::make_unique<policy::SdbpPredictor>(geom, 1));
        return std::make_unique<sim::RocProbe>(geom, std::move(preds));
    };

    const auto probe_only = probe();
    sim::runSingleCore(src, lru, plain_cfg, {probe_only.get()});
    const auto telemetry_only =
        sim::runSingleCore(src, lru, telemetryConfig(5000));
    const auto both = probe();
    const auto r =
        sim::runSingleCore(src, lru, telemetryConfig(5000), {both.get()});

    ASSERT_GT(probe_only->roc(0).deadCount(), 0u);
    EXPECT_EQ(both->roc(0).deadCount(), probe_only->roc(0).deadCount());
    EXPECT_EQ(both->roc(0).liveCount(), probe_only->roc(0).liveCount());
    const auto want = probe_only->roc(0).curve();
    const auto got = both->roc(0).curve();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].threshold, want[i].threshold);
        EXPECT_EQ(got[i].falsePositiveRate, want[i].falsePositiveRate);
        EXPECT_EQ(got[i].truePositiveRate, want[i].truePositiveRate);
    }

    ASSERT_NE(r.telemetry, nullptr);
    ASSERT_NE(telemetry_only.telemetry, nullptr);
    EXPECT_EQ(telemetry::metricsJson(*r.telemetry, ""),
              telemetry::metricsJson(*telemetry_only.telemetry, ""));
    EXPECT_EQ(telemetry::traceEventsJson(*r.telemetry, "run"),
              telemetry::traceEventsJson(*telemetry_only.telemetry,
                                         "run"));
}

} // namespace
} // namespace mrp

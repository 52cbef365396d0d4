/**
 * @file
 * Tests for the self-profiling layer: scope nesting and the
 * inclusive/exclusive tree invariants, detached no-op behavior,
 * thread-local isolation through the parallel runner, the coarse-only
 * phase vocabulary of simulated runs, detached byte-identical reports,
 * profiled timing fields, progress heartbeats, and the `--prof-out`
 * document round trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "prof/export.hpp"
#include "prof/profiler.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/report.hpp"
#include "trace/spec.hpp"
#include "trace/workloads.hpp"
#include "util/json_reader.hpp"

namespace mrp::prof {
namespace {

/** Burn a little real time so timed phases are visibly nonzero. */
void
spin()
{
    volatile double x = 0.0;
    for (int i = 0; i < 20000; ++i)
        x = x + static_cast<double>(i) * 0.5;
}

void
innerPhase()
{
    MRP_PROF_SCOPE("test.inner");
    spin();
}

void
outerPhase(int inner_calls)
{
    MRP_PROF_SCOPE("test.outer");
    spin();
    for (int i = 0; i < inner_calls; ++i)
        innerPhase();
}

/** Every node satisfies Σ children ≤ inclusive and exclusive ≥ 0. */
void
checkTreeInvariants(const PhaseStat& s)
{
    double child_sum = 0.0;
    for (const PhaseStat& c : s.children) {
        child_sum += c.inclusiveSeconds;
        checkTreeInvariants(c);
    }
    EXPECT_LE(child_sum, s.inclusiveSeconds * (1.0 + 1e-9))
        << "children exceed parent at " << s.label;
    EXPECT_GE(s.exclusiveSeconds, 0.0) << "negative exclusive at "
                                       << s.label;
}

TEST(ProfilerTest, ScopeNestingBuildsInclusiveExclusiveTree)
{
    Profiler p;
    {
        Attach attach(p);
        outerPhase(3);
        outerPhase(3);
    }
    const ProfileReport r = p.finish();

    EXPECT_EQ(r.root.label, "run");
    ASSERT_EQ(r.root.children.size(), 1u);
    const PhaseStat& outer = r.root.children[0];
    EXPECT_EQ(outer.label, "test.outer");
    EXPECT_EQ(outer.count, 2u);
    ASSERT_EQ(outer.children.size(), 1u);
    const PhaseStat& inner = outer.children[0];
    EXPECT_EQ(inner.label, "test.inner");
    EXPECT_EQ(inner.count, 6u);

    EXPECT_GT(inner.inclusiveSeconds, 0.0);
    EXPECT_GE(outer.inclusiveSeconds, inner.inclusiveSeconds);
    EXPECT_NEAR(outer.exclusiveSeconds,
                outer.inclusiveSeconds - inner.inclusiveSeconds,
                1e-12);
    checkTreeInvariants(r.root);

    EXPECT_GT(r.wallSeconds, 0.0);
    EXPECT_GE(r.root.inclusiveSeconds, outer.inclusiveSeconds);
}

TEST(ProfilerTest, DetachedScopesAreNoOps)
{
    EXPECT_EQ(Profiler::current(), nullptr);
    // Must not crash, allocate per-profiler state, or observe time.
    outerPhase(2);
    EXPECT_EQ(Profiler::current(), nullptr);
}

TEST(ProfilerTest, AttachNestsAndRestores)
{
    Profiler outer;
    Profiler inner;
    {
        Attach a(outer);
        EXPECT_EQ(Profiler::current(), &outer);
        {
            Attach b(inner);
            EXPECT_EQ(Profiler::current(), &inner);
            innerPhase();
        }
        EXPECT_EQ(Profiler::current(), &outer);
    }
    EXPECT_EQ(Profiler::current(), nullptr);

    const ProfileReport ri = inner.finish();
    const ProfileReport ro = outer.finish();
    EXPECT_NE(findPhase(ri.root, "test.inner"), nullptr);
    EXPECT_EQ(findPhase(ro.root, "test.inner"), nullptr);
}

void
leafPhase()
{
    MRP_PROF_SCOPE("test.leaf");
}

void
midPhase(int leaves)
{
    MRP_PROF_SCOPE("test.mid");
    for (int i = 0; i < leaves; ++i)
        leafPhase();
    innerPhase();
}

TEST(ProfilerTest, NestedExactScopesNeverExceedTheirParent)
{
    // Many short entries at three depths: with every entry timed, a
    // child's interval lies inside its parent's, so the children's
    // inclusive times sum to at most the parent's without any
    // rescaling, and every count is exact.
    Profiler p;
    {
        Attach attach(p);
        for (int i = 0; i < 50; ++i) {
            MRP_PROF_SCOPE("test.top");
            midPhase(40);
            leafPhase();
        }
    }
    const ProfileReport r = p.finish();
    const PhaseStat* top = findPhase(r.root, "test.top");
    ASSERT_NE(top, nullptr);
    EXPECT_EQ(top->count, 50u);
    const PhaseStat* mid = top->child("test.mid");
    ASSERT_NE(mid, nullptr);
    EXPECT_EQ(mid->count, 50u);
    ASSERT_NE(top->child("test.leaf"), nullptr);
    EXPECT_EQ(top->child("test.leaf")->count, 50u);
    ASSERT_NE(mid->child("test.leaf"), nullptr);
    EXPECT_EQ(mid->child("test.leaf")->count, 2000u);
    ASSERT_NE(mid->child("test.inner"), nullptr);
    EXPECT_EQ(mid->child("test.inner")->count, 50u);

    const auto check = [](const PhaseStat& s, const auto& self) -> void {
        double child_sum = 0.0;
        for (const PhaseStat& c : s.children) {
            child_sum += c.inclusiveSeconds;
            self(c, self);
        }
        // Only floating-point rounding of the tick scaling may show.
        EXPECT_LE(child_sum, s.inclusiveSeconds * (1.0 + 1e-12))
            << "children exceed parent at " << s.label;
        EXPECT_NEAR(s.exclusiveSeconds,
                    std::max(0.0, s.inclusiveSeconds - child_sum),
                    1e-15)
            << s.label;
    };
    check(r.root, check);
}

TEST(ProfilerTest, SiteRegistryGrowsOncePerSite)
{
    innerPhase(); // first call registers the site
    const std::size_t before = siteCount();
    for (int i = 0; i < 5; ++i)
        innerPhase(); // later calls reuse the function-local static
    EXPECT_EQ(siteCount(), before);
}

// ---- runner integration ----

class TempFiles
{
  public:
    ~TempFiles()
    {
        for (const auto& p : paths_)
            std::remove(p.c_str());
    }

    std::string
    path(const std::string& name)
    {
        const std::string p = "/tmp/mrp_prof_" + name;
        std::remove(p.c_str());
        paths_.push_back(p);
        return p;
    }

  private:
    std::vector<std::string> paths_;
};

std::vector<runner::RunRequest>
smallBatch(const std::vector<const trace::Trace*>& traces)
{
    std::vector<runner::RunRequest> batch;
    for (const auto* tr : traces)
        for (const char* p : {"LRU", "MPPPB"})
            batch.push_back(runner::RunRequest::singleCore(
                trace::TraceSpec::borrowed(*tr),
                runner::PolicySpec::byName(p)));
    return batch;
}

TEST(ProfilerRunnerTest, PerRunProfilesAreThreadIsolated)
{
    const auto t0 = trace::makeSuiteTrace(4, 60000);
    const auto t1 = trace::makeSuiteTrace(9, 60000);
    const auto batch = smallBatch({&t0, &t1});

    runner::RunnerOptions opts;
    opts.profile = true;
    const auto set = runner::ExperimentRunner(2).run(batch, opts);

    ASSERT_EQ(set.results.size(), batch.size());
    std::set<const void*> distinct;
    for (const auto& r : set.results) {
        ASSERT_TRUE(r.ok()) << r.error;
        ASSERT_NE(r.profile, nullptr);
        distinct.insert(r.profile.get());
        // Each run owns a complete, self-consistent tree: exactly one
        // warmup and one measure window.
        const PhaseStat* measure = findPhase(r.profile->root, "measure");
        ASSERT_NE(measure, nullptr);
        EXPECT_EQ(measure->count, 1u);
        EXPECT_NE(findPhase(r.profile->root, "warmup"), nullptr);
        checkTreeInvariants(r.profile->root);
        EXPECT_GT(r.profile->wallSeconds, 0.0);
        EXPECT_GT(r.profile->instsPerSecond, 0.0);
    }
    EXPECT_EQ(distinct.size(), batch.size());
}

/** Collect every label in @p s's tree. */
void
collectLabels(const PhaseStat& s, std::set<std::string>* out)
{
    out->insert(s.label);
    for (const PhaseStat& c : s.children)
        collectLabels(c, out);
}

TEST(ProfilerRunnerTest, SimulatedRunsRecordOnlyCoarsePhases)
{
    // The profiler marks windows and passes, never a per-access path:
    // no llc.* or prefetch.* scope may reappear in the simulator.
    const auto t0 = trace::makeSuiteTrace(4, 60000);
    std::vector<runner::RunRequest> batch;
    for (const char* p : {"MPPPB", "MIN"})
        batch.push_back(runner::RunRequest::singleCore(
            trace::TraceSpec::borrowed(t0), runner::PolicySpec::byName(p)));
    runner::RunnerOptions opts;
    opts.profile = true;
    const auto set = runner::ExperimentRunner(1).run(batch, opts);
    ASSERT_EQ(set.results.size(), batch.size());

    const std::set<std::string> coarse = {"run", "warmup", "measure",
                                          "min.record", "min.replay"};
    for (const auto& r : set.results) {
        ASSERT_TRUE(r.ok()) << r.error;
        ASSERT_NE(r.profile, nullptr);
        std::set<std::string> labels;
        collectLabels(r.profile->root, &labels);
        for (const std::string& l : labels)
            EXPECT_TRUE(coarse.count(l) || l.rfind("trace.", 0) == 0)
                << r.policy << " run has non-coarse phase " << l;
        EXPECT_TRUE(labels.count("measure")) << r.policy;
        checkTreeInvariants(r.profile->root);
    }
    const PhaseStat& min_root = set.results[1].profile->root;
    EXPECT_NE(findPhase(min_root, "min.record"), nullptr);
    EXPECT_NE(findPhase(min_root, "min.replay"), nullptr);
}

TEST(ProfilerRunnerTest, DetachedReportsByteIdenticalAcrossJobsAndProfile)
{
    const auto t0 = trace::makeSuiteTrace(4, 60000);
    const auto batch = smallBatch({&t0});

    runner::RunnerOptions off;
    runner::RunnerOptions on;
    on.profile = true;

    const auto base_j1 = runner::ExperimentRunner(1).run(batch, off);
    const auto base_j2 = runner::ExperimentRunner(2).run(batch, off);
    const auto prof_j1 = runner::ExperimentRunner(1).run(batch, on);
    const auto prof_j2 = runner::ExperimentRunner(2).run(batch, on);

    // Timing-off reports never expose the profile: all four byte-equal.
    const runner::ReportOptions ropts; // timing = false
    const std::string json = toJson(base_j1, ropts);
    EXPECT_EQ(json, toJson(base_j2, ropts));
    EXPECT_EQ(json, toJson(prof_j1, ropts));
    EXPECT_EQ(json, toJson(prof_j2, ropts));
    const std::string csv = toCsv(base_j1, ropts);
    EXPECT_EQ(csv, toCsv(base_j2, ropts));
    EXPECT_EQ(csv, toCsv(prof_j1, ropts));
    EXPECT_EQ(csv, toCsv(prof_j2, ropts));
}

TEST(ProfilerRunnerTest, TimingReportsGainProfiledFields)
{
    const auto t0 = trace::makeSuiteTrace(4, 60000);
    const auto batch = smallBatch({&t0});

    runner::ReportOptions timing;
    timing.timing = true;

    runner::RunnerOptions off;
    const auto plain = runner::ExperimentRunner(1).run(batch, off);
    const std::string plain_json = toJson(plain, timing);
    EXPECT_EQ(plain_json.find("userSeconds"), std::string::npos);

    runner::RunnerOptions on;
    on.profile = true;
    const auto profiled = runner::ExperimentRunner(1).run(batch, on);
    const std::string json = toJson(profiled, timing);
    EXPECT_NE(json.find("\"userSeconds\":"), std::string::npos);
    EXPECT_NE(json.find("\"sysSeconds\":"), std::string::npos);
    EXPECT_NE(json.find("\"maxRssKb\":"), std::string::npos);
    EXPECT_NE(json.find("\"accessesPerSecond\":"), std::string::npos);

    const std::string csv = toCsv(profiled, timing);
    EXPECT_NE(csv.find("user_seconds"), std::string::npos);
    EXPECT_NE(csv.find("accesses_per_second"), std::string::npos);
    EXPECT_EQ(toCsv(plain, timing).find("user_seconds"),
              std::string::npos);
}

std::string
slurp(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

TEST(ProfilerRunnerTest, ProgressJsonlIsValidAndComplete)
{
    TempFiles tmp;
    const std::string progress = tmp.path("progress.jsonl");

    const auto t0 = trace::makeSuiteTrace(4, 60000);
    const auto t1 = trace::makeSuiteTrace(9, 60000);
    const auto batch = smallBatch({&t0, &t1});

    runner::RunnerOptions opts;
    opts.progressJsonlPath = progress;
    const auto set = runner::ExperimentRunner(2).run(batch, opts);
    ASSERT_EQ(set.results.size(), batch.size());

    std::istringstream lines(slurp(progress));
    std::string line;
    std::vector<std::string> events;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        json::Value doc;
        ASSERT_TRUE(json::tryParseJson(line, &doc)) << line;
        const json::Value* ev = doc.get("event");
        ASSERT_NE(ev, nullptr);
        events.push_back(ev->string);
    }
    ASSERT_GE(events.size(), 2u + 2u * batch.size());
    EXPECT_EQ(events.front(), "batch_start");
    EXPECT_EQ(events.back(), "batch_end");
    std::size_t starts = 0, ends = 0;
    for (const auto& e : events) {
        starts += e == "run_start";
        ends += e == "run_end";
    }
    EXPECT_EQ(starts, batch.size());
    EXPECT_EQ(ends, batch.size());
}

TEST(ProfilerRunnerTest, ResumedRunsReportSkipped)
{
    TempFiles tmp;
    const std::string journal = tmp.path("journal.jsonl");
    const std::string progress = tmp.path("resume_progress.jsonl");

    const auto t0 = trace::makeSuiteTrace(4, 60000);
    const auto batch = smallBatch({&t0});

    runner::RunnerOptions first;
    first.journalPath = journal;
    runner::ExperimentRunner(1).run(batch, first);

    runner::RunnerOptions second;
    second.resumePath = journal;
    second.progressJsonlPath = progress;
    const auto set = runner::ExperimentRunner(1).run(batch, second);
    ASSERT_EQ(set.results.size(), batch.size());

    const std::string text = slurp(progress);
    std::size_t skipped = 0;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line))
        skipped += line.find("\"run_skipped\"") != std::string::npos;
    EXPECT_EQ(skipped, batch.size());
    EXPECT_EQ(text.find("\"run_start\""), std::string::npos);
}

// ---- --prof-out document ----

TEST(BenchExportTest, BenchJsonRoundTripsThroughReader)
{
    const auto t0 = trace::makeSuiteTrace(4, 60000);
    const auto batch = smallBatch({&t0});
    runner::RunnerOptions opts;
    opts.profile = true;
    const auto set = runner::ExperimentRunner(1).run(batch, opts);

    std::vector<BenchRun> runs;
    for (const auto& r : set.results) {
        ASSERT_NE(r.profile, nullptr);
        runs.push_back(
            {r.label.empty() ? r.benchmark + "/" + r.policy : r.label,
             r.benchmark, r.policy, *r.profile});
    }

    MachineInfo machine;
    machine.os = "Linux";
    machine.release = "test";
    machine.arch = "x86_64";
    machine.hostname = "host";
    machine.cpus = 2;
    const std::string doc =
        benchJson("unit", runs, machine, "deadbeef");

    const json::Value v = json::parseJson(doc, "BENCH_unit.json");
    EXPECT_EQ(v.require("schema", json::Value::Type::String, "doc")
                  .string,
              "mrp-bench-v1");
    EXPECT_EQ(v.require("gitSha", json::Value::Type::String, "doc")
                  .string,
              "deadbeef");
    const json::Value& m =
        v.require("machine", json::Value::Type::Object, "doc");
    EXPECT_EQ(m.require("arch", json::Value::Type::String, "machine")
                  .string,
              "x86_64");
    const json::Value& rs =
        v.require("runs", json::Value::Type::Array, "doc");
    ASSERT_EQ(rs.array.size(), runs.size());
    for (const json::Value& r : rs.array) {
        const json::Value& phases =
            r.require("phases", json::Value::Type::Object, "run");
        EXPECT_EQ(phases
                      .require("label", json::Value::Type::String,
                               "phases")
                      .string,
                  "run");
        EXPECT_GT(r.require("wallSeconds", json::Value::Type::Number,
                            "run")
                      .number,
                  0.0);
    }
}

TEST(BenchExportTest, TraceEventsAreWellFormedJson)
{
    Profiler p;
    {
        Attach attach(p);
        outerPhase(2);
    }
    BenchRun run{"t/LRU", "t", "LRU", p.finish()};

    std::vector<std::string> events;
    appendTraceEvents(run, 10000, &events);
    ASSERT_GE(events.size(), 2u); // metadata + at least one phase
    bool saw_meta = false, saw_complete = false;
    for (const auto& e : events) {
        json::Value doc;
        ASSERT_TRUE(json::tryParseJson(e, &doc)) << e;
        const json::Value& ph =
            doc.require("ph", json::Value::Type::String, "event");
        saw_meta |= ph.string == "M";
        saw_complete |= ph.string == "X";
    }
    EXPECT_TRUE(saw_meta);
    EXPECT_TRUE(saw_complete);
}

} // namespace
} // namespace mrp::prof

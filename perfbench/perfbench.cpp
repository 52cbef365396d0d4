/**
 * @file
 * End-to-end and per-layer benchmark for regenerating the paper's
 * figures. Three closed-loop workloads, each a RunRequest batch on
 * runner::ExperimentRunner:
 *
 *   suite_mpppb       33 suite traces x MPPPB, single-core, 2.5M insts
 *   suite_lru_stream  the same traces as v3 files, streamed, under LRU
 *   mix4_campaign     16 test mixes x {LRU, MPPPB-MC}, 4-core, 800k
 *
 * Untraced mode (--trace 0) sets the workload up several times, then
 * repeats the batch for --seconds and reports medians. Each setup and
 * batch is followed by the host probe (host_probe.hpp), and its times
 * are reported in reference seconds. Traced mode (--trace 1) alternates
 * untraced and decorated batches (traced.hpp) and reports per-layer
 * numbers plus the tracing overhead.
 *
 * The last stdout line is one JSON object for run.py, which checks the
 * digests and prints the benchmark's result. See README.md.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "runner/experiment_runner.hpp"
#include "runner/report.hpp"
#include "trace/mix.hpp"
#include "trace/trace_io.hpp"
#include "trace/workloads.hpp"
#include "host_probe.hpp"
#include "traced.hpp"
#include "util/json_writer.hpp"

namespace {

using mrp::InstCount;
using mrp::runner::RunRequest;
using mrp::runner::RunSet;

constexpr const char* kUsage =
    "usage: perfbench --workload suite_mpppb|suite_lru_stream|mix4_campaign\n"
    "                 [--seed N] [--seconds S] [--trace 0|1] [--jobs N]\n"
    "                 [--work-dir DIR] [--spans-out FILE] [--git-sha SHA]\n";

/** The first 16 test mixes at fig4's 800k-instruction regions. */
constexpr unsigned kMixCount = 16;
constexpr std::uint64_t kMixSeed = 0xF1E57A;

/** Untraced runs set up at least this many times and for at least this
 * long, and report the median: one setup of mix4_campaign takes well
 * under 0.1 s, too short to time once. */
constexpr unsigned kMinSetups = 3;
constexpr double kMinSetupSeconds = 1.0;

[[noreturn]] void
usageError(const std::string& msg)
{
    std::fprintf(stderr, "perfbench: %s\n%s", msg.c_str(), kUsage);
    std::exit(2);
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool traced = false;
    unsigned jobs = 0;
    InstCount insts = 0; //!< trace length, fixed by the workload
    std::string workDir = ".bench_build/work";
    std::string spansOut;
    std::string gitSha = "unknown";
};

unsigned
hostCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

std::uint64_t
parseCount(const std::string& flag, const char* s)
{
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0' || s[0] == '-')
        usageError(flag + " needs a non-negative integer, got '" + s + "'");
    return v;
}

Options
parseArgs(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usageError("missing value for " + a);
        const char* v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = parseCount(a, v);
        else if (a == "--seconds")
            o.seconds = static_cast<double>(parseCount(a, v));
        else if (a == "--trace")
            o.traced = parseCount(a, v) != 0;
        else if (a == "--jobs")
            o.jobs = static_cast<unsigned>(parseCount(a, v));
        else if (a == "--work-dir")
            o.workDir = v;
        else if (a == "--spans-out")
            o.spansOut = v;
        else if (a == "--git-sha")
            o.gitSha = v;
        else
            usageError("unknown option " + a);
    }
    if (o.workload != "suite_mpppb" && o.workload != "suite_lru_stream" &&
        o.workload != "mix4_campaign")
        usageError("unknown workload '" + o.workload + "'");
    const unsigned nproc = hostCpus();
    if (o.jobs == 0)
        o.jobs = std::min(4u, nproc);
    if (o.jobs > nproc)
        usageError("--jobs " + std::to_string(o.jobs) + " exceeds the " +
                   std::to_string(nproc) + " CPUs available");
    o.insts = o.workload == "mix4_campaign" ? 800000 : 2500000;
    return o;
}

// --- small JSON emitter -------------------------------------------------

/** Ordered "key": value pairs rendered as one JSON object. */
class JsonObject
{
  public:
    JsonObject& raw(const std::string& k, const std::string& v)
    {
        body_ += (body_.empty() ? "" : ", ") + mrp::json::key(k) + v;
        return *this;
    }
    JsonObject& str(const std::string& k, const std::string& v)
    {
        return raw(k, mrp::json::str(v));
    }
    JsonObject& num(const std::string& k, double v)
    {
        return raw(k, mrp::json::formatDouble(v));
    }
    std::string render() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string
jarray(const std::vector<std::string>& items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        out += (i ? ", " : "") + items[i];
    return out + "]";
}

// --- host measurements ---------------------------------------------------

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
secondsSince(perfbench::Clock::time_point t)
{
    return std::chrono::duration<double>(perfbench::Clock::now() - t)
        .count();
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" \t", colon + 1));
        }
    return "unknown";
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("g++ ") + __VERSION__;
#else
    return "unknown";
#endif
}

/** FNV-1a 64 of @p s, as 16 hex digits. */
std::string
digestOf(const std::string& s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Index of the median element of @p v (lower median). */
std::size_t
medianIndex(const std::vector<double>& v)
{
    std::vector<std::size_t> idx(v.size());
    for (std::size_t i = 0; i < idx.size(); ++i)
        idx[i] = i;
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
    return idx[(idx.size() - 1) / 2];
}

double
geomeanPositive(const std::vector<double>& xs)
{
    double log_sum = 0.0;
    std::size_t n = 0;
    for (const double x : xs)
        if (x > 0.0) {
            log_sum += std::log(x);
            ++n;
        }
    return n ? std::exp(log_sum / static_cast<double>(n)) : 0.0;
}

// --- workloads -----------------------------------------------------------

/** A workload's inputs: traces it owns and the batch that runs them. */
struct Setup
{
    std::vector<std::unique_ptr<mrp::trace::Trace>> traces; //!< by suite idx
    std::vector<RunRequest> batch;
    double wallS = 0.0;
    double generateS = 0.0; //!< summed over setup threads
    double writeS = 0.0;    //!< summed over setup threads
};

/** Generate suite traces @p which in parallel; @p keep(idx, trace) takes
 * each one. Returns thread-summed seconds spent generating. */
template <class Keep>
double
generateSuite(const std::vector<unsigned>& which, InstCount insts,
              std::uint64_t seed, unsigned jobs, Keep keep)
{
    std::vector<double> gen(which.size(), 0.0);
    perfbench::parallelFor(which.size(), jobs,
                           [&](std::size_t i, unsigned) {
        const auto t0 = perfbench::Clock::now();
        auto tr = mrp::trace::makeSuiteTrace(which[i], insts, seed);
        gen[i] = secondsSince(t0);
        keep(which[i], std::move(tr));
    });
    double sum = 0.0;
    for (const double g : gen)
        sum += g;
    return sum;
}

Setup
makeSetup(const Options& o)
{
    const auto t0 = perfbench::Clock::now();
    Setup s;
    s.traces.resize(mrp::trace::suiteSize());
    std::vector<unsigned> all(mrp::trace::suiteSize());
    for (unsigned i = 0; i < all.size(); ++i)
        all[i] = i;

    const auto keep = [&](unsigned idx, mrp::trace::Trace&& t) {
        s.traces[idx] = std::make_unique<mrp::trace::Trace>(std::move(t));
    };

    if (o.workload == "suite_mpppb") {
        mrp::sim::SingleCoreConfig cfg;
        cfg.seed = o.seed;
        s.generateS = generateSuite(all, o.insts, o.seed, o.jobs, keep);
        for (const unsigned i : all)
            s.batch.push_back(RunRequest::singleCore(
                mrp::trace::TraceSpec::borrowed(*s.traces[i]),
                mrp::runner::PolicySpec::byName("MPPPB"), cfg));
    } else if (o.workload == "suite_lru_stream") {
        std::filesystem::create_directories(o.workDir);
        const auto path = [&](unsigned idx) {
            return o.workDir + "/suite" + std::to_string(idx) + ".trc";
        };
        std::vector<double> write(all.size(), 0.0);
        s.generateS = generateSuite(
            all, o.insts, o.seed, o.jobs,
            [&](unsigned idx, mrp::trace::Trace&& t) {
                const auto w0 = perfbench::Clock::now();
                mrp::trace::saveTrace(path(idx), t);
                write[idx] = secondsSince(w0);
            });
        for (const double w : write)
            s.writeS += w;
        mrp::sim::SingleCoreConfig cfg;
        cfg.seed = o.seed;
        for (const unsigned i : all) {
            auto req = RunRequest::singleCore(
                mrp::trace::TraceSpec::file(path(i)),
                mrp::runner::PolicySpec::byName("LRU"), cfg);
            req.openOptions.fileMode = mrp::trace::FileMode::Buffered;
            s.batch.push_back(std::move(req));
        }
    } else {
        // The mix list stays canonical at every seed: a salted draw
        // changes which benchmarks run, which moved insts/s by
        // up to 30% between seeds. The seed still salts every trace.
        const auto split =
            mrp::trace::makeMixSplit(kMixCount, kMixCount, kMixSeed);
        std::vector<unsigned> used;
        for (const auto& mix : split.test)
            for (const unsigned b : mix.benchmarks)
                if (std::find(used.begin(), used.end(), b) == used.end())
                    used.push_back(b);
        std::sort(used.begin(), used.end());
        s.generateS = generateSuite(used, o.insts, o.seed, o.jobs, keep);
        mrp::sim::MultiCoreConfig cfg;
        cfg.seed = o.seed;
        for (const auto& mix : split.test) {
            std::array<mrp::trace::TraceSpec, 4> specs = {
                mrp::trace::TraceSpec::borrowed(*s.traces[mix.benchmarks[0]]),
                mrp::trace::TraceSpec::borrowed(*s.traces[mix.benchmarks[1]]),
                mrp::trace::TraceSpec::borrowed(*s.traces[mix.benchmarks[2]]),
                mrp::trace::TraceSpec::borrowed(*s.traces[mix.benchmarks[3]])};
            for (const char* p : {"LRU", "MPPPB-MC"})
                s.batch.push_back(RunRequest::multiCore(
                    specs, mrp::runner::PolicySpec::byName(p), cfg));
        }
    }
    s.wallS = secondsSince(t0);
    return s;
}

// --- one untraced batch ----------------------------------------------------

struct BatchSample
{
    RunSet set;
    double wallS = 0.0;
    double cpuS = 0.0;
    InstCount insts = 0;
    unsigned failedRuns = 0;
    std::string digest;
};

/** Summarize @p set; failed runs are those with an error or empty
 * outcome. */
void
summarize(BatchSample& b, std::vector<std::string>& errors)
{
    for (const auto& r : b.set.results) {
        b.insts += r.instructions;
        if (!r.ok() || r.instructions == 0 || !(r.ipc > 0.0)) {
            ++b.failedRuns;
            if (errors.size() < 5)
                errors.push_back(r.label + "/" + r.policy + ": " +
                                 (r.ok() ? "empty outcome" : r.error));
        }
    }
    b.digest = digestOf(mrp::runner::toJson(b.set));
}

BatchSample
runUntraced(const std::vector<RunRequest>& batch, unsigned jobs,
            std::vector<std::string>& errors)
{
    const mrp::runner::ExperimentRunner pool(jobs);
    BatchSample b;
    const double cpu0 = cpuSeconds();
    b.set = pool.run(batch);
    b.cpuS = cpuSeconds() - cpu0;
    b.wallS = b.set.wallSeconds;
    summarize(b, errors);
    return b;
}

struct TracedSample
{
    BatchSample b;
    perfbench::TracedBatch traced;
};

TracedSample
runTracedBatch(const std::vector<RunRequest>& batch, unsigned jobs,
               std::vector<std::string>& errors)
{
    TracedSample t;
    const double cpu0 = cpuSeconds();
    t.traced = perfbench::runTraced(batch, jobs);
    t.b.cpuS = cpuSeconds() - cpu0;
    t.b.set = t.traced.set;
    t.b.wallS = t.b.set.wallSeconds;
    summarize(t.b, errors);
    return t;
}

// --- output ----------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
contextJson(const Options& o, std::size_t batch_runs, double clock_ns)
{
    return JsonObject()
        .str("workload", o.workload)
        .num("seed", static_cast<double>(o.seed))
        .num("trace_insts", static_cast<double>(o.insts))
        .num("runs_per_batch", static_cast<double>(batch_runs))
        .num("jobs", o.jobs)
        .num("nproc", hostCpus())
        .str("cpu_model", cpuModel())
        .str("compiler", compilerName())
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .str("git_sha", o.gitSha)
        .num("clock_pair_ns", clock_ns)
        .num("sample_every", perfbench::kSampleEvery)
        .render();
}

std::string
spansJson(const perfbench::TracedBatch& tb, double clock_ns)
{
    std::vector<std::string> runs;
    for (const auto& sp : tb.spans) {
        const auto& r = tb.set.results[sp.index];
        JsonObject hooks;
        for (int h = 0; h < perfbench::kHookCount; ++h) {
            const auto& st = sp.policy.hooks[h];
            hooks.raw(perfbench::kHookNames[h],
                      JsonObject()
                          .num("calls", static_cast<double>(st.calls))
                          .num("sampled", static_cast<double>(st.sampled))
                          .num("s", st.seconds(clock_ns))
                          .render());
        }
        runs.push_back(
            JsonObject()
                .num("index", static_cast<double>(sp.index))
                .str("label", r.label)
                .str("policy", r.policy)
                .num("worker", sp.worker)
                .num("start_s", sp.startS)
                .num("end_s", sp.endS)
                .raw("trace.next_chunk",
                     JsonObject()
                         .num("calls", static_cast<double>(sp.trace.calls))
                         .num("records",
                              static_cast<double>(sp.trace.records))
                         .num("s", sp.trace.seconds(clock_ns))
                         .render())
                .raw("llc_policy", hooks.render())
                .render());
    }
    return JsonObject()
        .num("wall_s", tb.set.wallSeconds)
        .raw("runs", jarray(runs))
        .render();
}

/** Per-layer metrics from one traced batch and one untraced batch, plus
 * the median probe time and untraced host rate of the traced pass. */
std::vector<Metric>
layerMetrics(const Setup& setup, const TracedSample& t,
             const BatchSample& u, double overhead, double clock_ns,
             double probe_s, double host_rate)
{
    perfbench::SourceStats src;
    perfbench::PolicyStats pol;
    std::vector<double> run_s;
    double self_s = 0.0;
    for (const auto& sp : t.traced.spans) {
        src.add(sp.trace);
        pol.add(sp.policy);
        const double run = sp.endS - sp.startS;
        run_s.push_back(run);
        self_s += run - sp.trace.seconds(clock_ns) -
                  sp.policy.busySeconds(clock_ns);
    }
    const double trace_s = src.seconds(clock_ns);
    const double busy_s = pol.busySeconds(clock_ns);
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const std::uint64_t accesses = pol.demandHits + pol.demandMisses;

    std::vector<double> ipc, mpki;
    double run_sum = 0.0, max_run = 0.0, failed = 0.0, retries = 0.0;
    for (const auto& r : u.set.results) {
        ipc.push_back(r.ipc);
        mpki.push_back(r.mpki);
        run_sum += r.wallSeconds;
        max_run = std::max(max_run, r.wallSeconds);
        failed += r.ok() ? 0 : 1;
        retries += r.attempts > 1 ? r.attempts - 1 : 0;
    }

    std::vector<Metric> m = {
        {"trace.next_chunk_s", trace_s, "s"},
        {"trace.records", static_cast<double>(src.records), "count"},
        {"trace.ns_per_record", 1e9 * ratio(trace_s, src.records), "ns"},
        {"trace.generate_s", setup.generateS, "s"},
        {"trace.write_s", setup.writeS, "s"},
        {"llc_policy.busy_s", busy_s, "s"},
    };
    for (int h = 0; h < perfbench::kHookCount; ++h)
        m.push_back({std::string("llc_policy.") + perfbench::kHookNames[h] +
                         "_s",
                     pol.hooks[h].seconds(clock_ns), "s"});
    const double calls = static_cast<double>(pol.calls());
    m.insert(m.end(), {
        {"llc_policy.calls", calls, "count"},
        {"llc_policy.ns_per_call", 1e9 * ratio(busy_s, calls), "ns"},
        {"llc.accesses", static_cast<double>(accesses), "count"},
        {"llc.hits", static_cast<double>(pol.demandHits), "count"},
        {"llc.misses", static_cast<double>(pol.demandMisses), "count"},
        {"llc.bypasses", static_cast<double>(pol.bypasses), "count"},
        {"llc.fills", static_cast<double>(pol.fills), "count"},
        {"llc.evictions", static_cast<double>(pol.evictions), "count"},
        {"llc.hit_ratio", ratio(pol.demandHits, accesses), "ratio"},
        // Bypasses cover every access type, so divide by all misses.
        {"llc.bypass_ratio",
         ratio(pol.bypasses, pol.hooks[perfbench::kOnMiss].calls), "ratio"},
        {"sim.mpki_geomean", geomeanPositive(mpki), "mpki"},
        {"sim.ipc_geomean", geomeanPositive(ipc), "ipc"},
        {"sim.run_s_median", median(run_s), "s"},
        {"sim.run_s_max",
         run_s.empty() ? 0.0 : *std::max_element(run_s.begin(), run_s.end()),
         "s"},
        {"sim.self_s", self_s, "s"},
        {"sim.self_ns_per_inst", 1e9 * ratio(self_s, t.b.insts), "ns"},
        {"runner.wall_s", u.wallS, "s"},
        {"runner.run_sum_s", run_sum, "s"},
        {"runner.parallel_eff", ratio(run_sum, u.wallS * u.set.jobs), "ratio"},
        {"runner.max_run_s", max_run, "s"},
        {"runner.failed", failed, "count"},
        {"runner.retries", retries, "count"},
        {"trace_overhead_frac", overhead, "ratio"},
        {"host.probe_s", probe_s, "s"},
        {"host.insts_per_s", host_rate, "1/s"},
    });
    return m;
}

/** Cross-checks of the decorator's counts against the runner's: the
 * decorator also sees warmup, so its counts bound the measured ones. */
void
checkCounts(const TracedSample& t, std::vector<std::string>& checks)
{
    perfbench::PolicyStats pol;
    perfbench::SourceStats src;
    for (const auto& sp : t.traced.spans) {
        pol.add(sp.policy);
        src.add(sp.trace);
    }
    std::uint64_t acc = 0, miss = 0, byp = 0;
    for (const auto& r : t.b.set.results) {
        acc += r.llcDemandAccesses;
        miss += r.llcDemandMisses;
        byp += r.llcBypasses;
    }
    if (pol.demandHits + pol.demandMisses < acc)
        checks.push_back("decorator saw fewer LLC accesses than the runner");
    if (pol.demandMisses < miss)
        checks.push_back("decorator saw fewer LLC misses than the runner");
    if (pol.bypasses < byp)
        checks.push_back("decorator saw fewer bypasses than the runner");
    if (src.records == 0)
        checks.push_back("decorated sources delivered no records");
}

int
run(const Options& o)
{
    const double clock_ns = perfbench::calibrateClockNs();
    std::vector<std::string> errors, checks, digests, traced_digests;
    std::vector<Metric> metrics;
    std::size_t attempted = 0;
    unsigned failed_runs = 0;

    // Set up several times and keep the last; report the median. The
    // probe runs after every setup and batch, and the median of its times
    // rescales the run's timings to reference seconds.
    perfbench::HostProbe probe(o.jobs);
    std::vector<double> setup_s, probe_s;
    Setup setup;
    double setup_total = 0.0;
    do {
        setup = Setup{}; // release the previous traces first
        setup = makeSetup(o);
        setup_s.push_back(setup.wallS);
        setup_total += setup.wallS;
        probe_s.push_back(probe.run());
    } while (!o.traced && (setup_s.size() < kMinSetups ||
                           setup_total < kMinSetupSeconds));
    std::fprintf(stderr, "perfbench: %s seed %llu: %zu runs, setup %.3fs\n",
                 o.workload.c_str(),
                 static_cast<unsigned long long>(o.seed),
                 setup.batch.size(), median(setup_s));

    const auto account = [&](const BatchSample& b) {
        attempted += b.set.results.size();
        failed_runs += b.failedRuns;
    };

    const auto start = perfbench::Clock::now();
    if (!o.traced) {
        std::vector<double> rate, cpu;
        do {
            const auto b = runUntraced(setup.batch, o.jobs, errors);
            account(b);
            digests.push_back(b.digest);
            rate.push_back(static_cast<double>(b.insts) / b.wallS);
            cpu.push_back(b.cpuS);
            probe_s.push_back(probe.run());
            std::fprintf(stderr,
                         "perfbench: batch %zu: %.3fs wall, %.3fs cpu, "
                         "%.4g insts/s, probe %.4fs\n",
                         rate.size(), b.wallS, b.cpuS, rate.back(),
                         probe_s.back());
        } while (secondsSince(start) < o.seconds || rate.size() < 3);
        const double scale = perfbench::HostProbe::scale(median(probe_s));
        metrics = {
            {"sim_insts_per_ref_s", median(rate) / scale, "1/s"},
            {"cpu_ref_s", median(cpu) * scale, "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"setup_s", median(setup_s) * scale, "s"},
        };
    } else {
        // Alternate untraced and traced batches over the same requests.
        std::vector<BatchSample> plain;
        std::vector<TracedSample> traced;
        std::vector<double> host_rate;
        do {
            plain.push_back(runUntraced(setup.batch, o.jobs, errors));
            account(plain.back());
            probe_s.push_back(probe.run());
            host_rate.push_back(static_cast<double>(plain.back().insts) /
                                plain.back().wallS);
            traced.push_back(runTracedBatch(setup.batch, o.jobs, errors));
            account(traced.back().b);
            digests.push_back(plain.back().digest);
            traced_digests.push_back(traced.back().b.digest);
            checkCounts(traced.back(), checks);
            std::fprintf(stderr,
                         "perfbench: pair %zu: untraced %.3fs, traced "
                         "%.3fs\n",
                         plain.size(), plain.back().wallS,
                         traced.back().b.wallS);
        } while (secondsSince(start) < o.seconds);
        std::vector<double> pw, tw;
        for (const auto& b : plain)
            pw.push_back(b.wallS);
        for (const auto& t : traced)
            tw.push_back(t.b.wallS);
        const double overhead = median(tw) / median(pw) - 1.0;
        metrics = layerMetrics(setup, traced[medianIndex(tw)],
                               plain[medianIndex(pw)], overhead, clock_ns,
                               median(probe_s), median(host_rate));

        if (!o.spansOut.empty()) {
            std::vector<std::string> reps;
            for (const auto& t : traced)
                reps.push_back(spansJson(t.traced, clock_ns));
            const auto dir = std::filesystem::path(o.spansOut).parent_path();
            if (!dir.empty())
                std::filesystem::create_directories(dir);
            mrp::runner::writeFile(o.spansOut,
                      JsonObject()
                          .raw("context",
                               contextJson(o, setup.batch.size(), clock_ns))
                          .raw("traced_batches", jarray(reps))
                          .render() +
                          "\n");
        }
    }

    std::vector<std::string> mjson, djson, tdjson, ejson, cjson;
    for (const auto& m : metrics) {
        mjson.push_back(JsonObject()
                            .str("name", m.name)
                            .num("value", m.value)
                            .str("unit", m.unit)
                            .render());
    }
    for (const auto& d : digests)
        djson.push_back(mrp::json::str(d));
    for (const auto& d : traced_digests)
        tdjson.push_back(mrp::json::str(d));
    for (const auto& e : errors)
        ejson.push_back(mrp::json::str(e));
    for (const auto& c : checks)
        cjson.push_back(mrp::json::str(c));
    std::printf("%s\n",
                JsonObject()
                    .raw("context", contextJson(o, setup.batch.size(), clock_ns))
                    .num("attempted", static_cast<double>(attempted))
                    .num("failed_runs", failed_runs)
                    .raw("errors", jarray(ejson))
                    .raw("checks", jarray(cjson))
                    .raw("digests", jarray(djson))
                    .raw("traced_digests", jarray(tdjson))
                    .raw("metrics", jarray(mjson))
                    .render()
                    .c_str());
    std::fflush(stdout);

    if (o.workload == "suite_lru_stream")
        std::filesystem::remove_all(o.workDir);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const Options o = parseArgs(argc, argv);
    try {
        return run(o);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: fatal: %s\n", e.what());
        if (o.workload == "suite_lru_stream")
            std::filesystem::remove_all(o.workDir);
        return 1;
    }
}

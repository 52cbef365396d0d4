/**
 * @file
 * Command-line simulator driver: run any suite benchmark or an
 * external trace file under any policy — or a comma-separated batch of
 * policies executed in parallel — with configurable cache sizes; the
 * everyday research workflow as one executable.
 *
 * Usage:
 *   mrp_sim_cli --list
 *   mrp_sim_cli --benchmark scan.a [--policy MPPPB] [--insts N]
 *               [--llc-kb 2048] [--no-prefetch] [--warmup 0.25]
 *   mrp_sim_cli --benchmark scan.a --policy LRU,Hawkeye,MPPPB,MIN
 *               [--jobs N] [--json FILE] [--csv FILE] [--timing]
 *               [--journal FILE] [--resume FILE] [--timeout SEC]
 *               [--retries N]
 *               [--metrics FILE] [--trace-out FILE] [--epoch N]
 *   mrp_sim_cli --trace file.mrpt [--policy Hawkeye] ...
 *               [--stream materialize|buffered|mmap] [--decode-ahead]
 *               [--chunk-records N]
 *   mrp_sim_cli --benchmark scan.a --dump file.mrpt   (export trace)
 *   mrp_sim_cli --mix scan.a,zipf [--partition 10,6]
 *               [--slo-mpki 2.5] [--qos] [--require-slo]
 *               [--qos-epoch N] [--qos-breach N] [--qos-calm N]
 *               [--qos-min-ways N] [--qos-hysteresis F]
 *               [--measure-cycles N] ...
 *
 * Multi-tenant mode (see README "Multi-tenant LLC"): --mix runs a
 * comma-separated list of >= 2 benchmarks as one shared-LLC
 * multi-core run, one core per name. --partition pins each tenant
 * (= core) to a fixed way count (the counts must sum to the LLC's
 * associativity); --slo-mpki attaches MPKI ceilings (one value =
 * tenant 0, or a full comma list); --qos enables the epoch-driven
 * controller that moves one way per epoch toward breached SLOs.
 * --require-slo exits 1 when a final measured MPKI exceeds its
 * ceiling — the CI gate. Reports gain per-tenant outcome fields and
 * the QoS resize schedule, byte-identical at any --jobs.
 *
 * Streaming (see README "Streaming traces"): traces are pulled chunk
 * by chunk through the TraceSource API, so a trace file is never fully
 * resident. --stream picks the file delivery mode — buffered reads
 * (default), mmap with sequential madvise, or materialize (load the
 * whole trace up front, the pre-streaming behavior); --decode-ahead
 * overlaps decoding with simulation on a background thread; and
 * --chunk-records sets the pull granularity. All of these change only
 * how bytes arrive: reports are byte-identical across every
 * combination. --dump streams as well (constant memory) and writes
 * the chunked v4 format atomically. It is also the way forward for a
 * trace file in an older format, which is no longer read: regenerate
 * it with --benchmark NAME --insts N --dump FILE.
 *
 * Besides the suite/held-out names, --benchmark accepts the streaming
 * generator families, which synthesize records on the fly (no trace
 * ever exists in memory): "zipf" (Zipfian key popularity, optionally
 * "zipf:THETA"), "blkio" (block-I/O / storage-cache accesses), and
 * "phase" (a phase-shifting zipf/blkio alternation). --insts scales
 * them and --seed re-salts them like any synthetic workload.
 *
 * Policy "MIN" runs the two-pass Belady oracle. A multi-policy batch
 * runs through the parallel ExperimentRunner; --jobs 0 (default)
 * means one worker per hardware thread. --json/--csv write the
 * deterministic batch report (add --timing for wall-clock fields).
 *
 * Durability (see README "Resilience"): --journal appends each
 * completed run to an fsync'd JSONL checkpoint; --resume skips runs
 * already recorded there (and keeps journaling to the same file
 * unless --journal overrides it), producing reports byte-identical
 * to an uninterrupted batch; --timeout flags runs exceeding the
 * per-run watchdog deadline; --retries re-executes transient
 * (io/timeout/resource) failures with exponential backoff.
 *
 * Observability (see README "Observability"): --metrics writes a
 * standalone metrics JSON document, --trace-out a Chrome
 * trace_event-format timeline loadable in Perfetto, and --epoch sets
 * the snapshot interval in LLC accesses (default 100000). Any of the
 * three enables telemetry for every run, which also embeds a
 * "metrics" object per run in --json and a metrics section in --csv.
 * Resumed runs carry no metrics (the journal stores outcomes only).
 *
 * Profiling (see README "Profiling & benchmarking"): --prof-out FILE
 * attaches a phase-timer Profiler to every run and writes a
 * BENCH_*.json document (schema "mrp-bench-v1") with the per-phase
 * time tree, host resource usage, and throughput; it also enriches
 * --timing reports with user/sys seconds and accesses/second, and
 * adds the phase tree to --trace-out as a second process family.
 * --progress prints a live one-line-per-event batch heartbeat to
 * stderr; --progress-jsonl FILE appends the same events as JSON
 * lines. Progress output is flushed but never fsync'd and is excluded
 * from the deterministic reports. With --resume, restored runs are
 * reported as "run_skipped" (they were not re-executed, so they have
 * no timing and do not count toward the ETA).
 *
 * Reproducibility: --seed N re-salts the synthetic trace generator
 * (only meaningful with --benchmark) and stamps N into every run
 * result, report, and journal entry, so an experiment can be replayed
 * from its report alone. Seed 0 (the default) is the canonical
 * paper-default instance and is omitted from reports.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "prof/export.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/report.hpp"
#include "trace/spec.hpp"
#include "trace/stream_reader.hpp"
#include "trace/workloads.hpp"
#include "util/logging.hpp"

namespace {

using namespace mrp;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: mrp_sim_cli --list\n"
        "       mrp_sim_cli (--benchmark NAME | --trace FILE)\n"
        "                   [--policy NAME[,NAME...]] [--insts N]\n"
        "                   [--llc-kb N] [--no-prefetch]\n"
        "                   [--warmup FRAC] [--jobs N]\n"
        "                   [--json FILE] [--csv FILE] [--timing]\n"
        "                   [--journal FILE] [--resume FILE]\n"
        "                   [--timeout SEC] [--retries N]\n"
        "                   [--metrics FILE] [--trace-out FILE]\n"
        "                   [--epoch N] [--dump FILE]\n"
        "                   [--prof-out FILE] [--progress]\n"
        "                   [--progress-jsonl FILE] [--seed N]\n"
        "                   [--stream materialize|buffered|mmap]\n"
        "                   [--decode-ahead] [--chunk-records N]\n"
        "       mrp_sim_cli --mix NAME,NAME[,...]\n"
        "                   [--partition W,W[,...]] [--slo-mpki S[,S...]]\n"
        "                   [--qos] [--require-slo] [--qos-epoch N]\n"
        "                   [--qos-breach N] [--qos-calm N]\n"
        "                   [--qos-min-ways N] [--qos-hysteresis F]\n"
        "                   [--measure-cycles N] ...\n"
        "streaming benchmarks: zipf[:THETA], blkio, phase\n");
    return 2;
}

std::optional<unsigned>
benchmarkIndex(const std::string& name)
{
    for (unsigned i = 0; i < trace::suiteSize(); ++i)
        if (trace::suiteName(i) == name)
            return i;
    for (unsigned i = 0; i < trace::heldOutSize(); ++i)
        if (trace::heldOutName(i) == name)
            return 1000 + i;
    return std::nullopt;
}

std::vector<std::string>
splitCommas(const std::string& s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const auto comma = s.find(',', pos);
        if (comma == std::string::npos) {
            out.push_back(s.substr(pos));
            break;
        }
        out.push_back(s.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

/** Streaming generator families addressable by --benchmark name. */
std::optional<trace::TraceSpec>
streamFamilySpec(const std::string& name, InstCount insts,
                 std::uint64_t seed)
{
    if (name == "zipf" || name.rfind("zipf:", 0) == 0) {
        trace::ZipfParams p;
        p.instructions = insts;
        if (seed != 0)
            p.seed = seed;
        if (name != "zipf") {
            p.theta = trace::zipfThetaOf(name);
            p.name = name;
        }
        return trace::TraceSpec::zipf(p);
    }
    if (name == "blkio") {
        trace::BlockIoParams p;
        p.instructions = insts;
        if (seed != 0)
            p.seed = seed;
        return trace::TraceSpec::blockIo(p);
    }
    if (name == "phase") {
        trace::ZipfParams zp;
        zp.instructions = insts;
        trace::BlockIoParams bp;
        bp.instructions = insts;
        if (seed != 0) {
            zp.seed = seed;
            bp.seed = seed + 1;
        }
        std::vector<trace::TraceSpec> kids;
        kids.push_back(trace::TraceSpec::zipf(zp));
        kids.push_back(trace::TraceSpec::blockIo(bp));
        return trace::TraceSpec::phaseMix(
            "phase", insts, std::max<InstCount>(insts / 8, 1),
            std::move(kids));
    }
    return std::nullopt;
}

/** Resolve one --benchmark/--mix name: generator family, suite, or
 * held-out workload. */
trace::TraceSpec
resolveBenchmark(const std::string& name, InstCount insts,
                 std::uint64_t seed)
{
    if (auto fam = streamFamilySpec(name, insts, seed))
        return *fam;
    const auto idx = benchmarkIndex(name);
    fatalIf(!idx, ErrorCode::Config,
            "unknown benchmark '" + name + "' (--list)");
    return *idx >= 1000
               ? trace::TraceSpec::heldOut(*idx - 1000, insts, seed)
               : trace::TraceSpec::suite(*idx, insts, seed);
}

int run(int argc, char** argv);

} // namespace

int
main(int argc, char** argv)
{
    // User/configuration errors (unknown names, bad values, I/O
    // failures) surface as FatalError; report them as CLI errors, not
    // aborts.
    try {
        return run(argc, argv);
    } catch (const FatalError& e) {
        std::fprintf(stderr, "mrp_sim_cli: %s [%s]\n", e.what(),
                     errorCodeName(e.code()));
        return 2;
    }
}

namespace {

int
run(int argc, char** argv)
{
    std::string benchmark;
    std::string trace_path;
    std::string dump_path;
    std::string json_path;
    std::string csv_path;
    std::string metrics_path;
    std::string trace_out_path;
    std::string prof_out_path;
    std::uint64_t epoch = 0; //!< 0 = library default
    runner::RunnerOptions ropts;
    std::string policy = "MPPPB";
    InstCount insts = 2500000;
    Addr llc_kb = 2048;
    bool prefetch = true;
    bool timing = false;
    double warmup = 0.25;
    unsigned jobs = 0;
    std::uint64_t seed = 0;
    std::string stream_mode = "buffered";
    trace::TraceSpec::OpenOptions oopts;
    std::string mix_arg;
    std::vector<unsigned> partition;
    std::vector<double> slo_mpki;
    bool qos = false;
    bool require_slo = false;
    tenant::QosConfig qos_cfg;
    Cycle measure_cycles = 0; //!< 0 = driver default

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            fatalIf(i + 1 >= argc, "missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--list") {
            std::printf("suite benchmarks:\n");
            for (unsigned b = 0; b < trace::suiteSize(); ++b)
                std::printf("  %s\n", trace::suiteName(b).c_str());
            std::printf("held-out workloads:\n");
            for (unsigned b = 0; b < trace::heldOutSize(); ++b)
                std::printf("  %s\n", trace::heldOutName(b).c_str());
            return 0;
        } else if (arg == "--benchmark") {
            benchmark = next();
        } else if (arg == "--trace") {
            trace_path = next();
        } else if (arg == "--dump") {
            dump_path = next();
        } else if (arg == "--policy") {
            policy = next();
        } else if (arg == "--insts") {
            insts = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--llc-kb") {
            llc_kb = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--no-prefetch") {
            prefetch = false;
        } else if (arg == "--warmup") {
            warmup = std::atof(next());
        } else if (arg == "--jobs") {
            jobs = static_cast<unsigned>(
                std::strtoul(next(), nullptr, 10));
        } else if (arg == "--json") {
            json_path = next();
        } else if (arg == "--csv") {
            csv_path = next();
        } else if (arg == "--timing") {
            timing = true;
        } else if (arg == "--journal") {
            ropts.journalPath = next();
        } else if (arg == "--resume") {
            ropts.resumePath = next();
        } else if (arg == "--timeout") {
            ropts.timeoutSeconds = std::atof(next());
        } else if (arg == "--retries") {
            ropts.maxRetries = static_cast<unsigned>(
                std::strtoul(next(), nullptr, 10));
        } else if (arg == "--metrics") {
            metrics_path = next();
        } else if (arg == "--trace-out") {
            trace_out_path = next();
        } else if (arg == "--epoch") {
            epoch = std::strtoull(next(), nullptr, 10);
            fatalIf(epoch == 0, "--epoch must be positive");
        } else if (arg == "--prof-out") {
            prof_out_path = next();
            ropts.profile = true;
        } else if (arg == "--progress") {
            ropts.progressStderr = true;
        } else if (arg == "--progress-jsonl") {
            ropts.progressJsonlPath = next();
        } else if (arg == "--seed") {
            seed = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--stream") {
            stream_mode = next();
            if (stream_mode == "mmap") {
                oopts.fileMode = trace::FileMode::Mmap;
            } else if (stream_mode != "buffered" &&
                       stream_mode != "materialize") {
                fatal(ErrorCode::Config,
                      "--stream wants materialize, buffered, or "
                      "mmap (got '" + stream_mode + "')");
            }
        } else if (arg == "--mix") {
            mix_arg = next();
        } else if (arg == "--partition") {
            for (const auto& w : splitCommas(next()))
                partition.push_back(static_cast<unsigned>(
                    std::strtoul(w.c_str(), nullptr, 10)));
        } else if (arg == "--slo-mpki") {
            for (const auto& s : splitCommas(next()))
                slo_mpki.push_back(std::atof(s.c_str()));
        } else if (arg == "--qos") {
            qos = true;
        } else if (arg == "--require-slo") {
            require_slo = true;
        } else if (arg == "--qos-epoch") {
            qos_cfg.epochInstructions =
                std::strtoull(next(), nullptr, 10);
        } else if (arg == "--qos-breach") {
            qos_cfg.breachEpochs = static_cast<unsigned>(
                std::strtoul(next(), nullptr, 10));
        } else if (arg == "--qos-calm") {
            qos_cfg.calmEpochs = static_cast<unsigned>(
                std::strtoul(next(), nullptr, 10));
        } else if (arg == "--qos-min-ways") {
            qos_cfg.minWays = static_cast<std::uint32_t>(
                std::strtoul(next(), nullptr, 10));
        } else if (arg == "--qos-hysteresis") {
            qos_cfg.hysteresisFrac = std::atof(next());
        } else if (arg == "--measure-cycles") {
            measure_cycles = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--decode-ahead") {
            oopts.decodeAhead = true;
        } else if (arg == "--chunk-records") {
            oopts.chunkRecords = std::strtoull(next(), nullptr, 10);
            fatalIf(oopts.chunkRecords == 0,
                    "--chunk-records must be positive");
        } else {
            return usage();
        }
    }
    const bool mix_mode = !mix_arg.empty();
    if (mix_mode) {
        fatalIf(!benchmark.empty() || !trace_path.empty() ||
                    !dump_path.empty() ||
                    stream_mode == "materialize",
                ErrorCode::Config,
                "--mix replaces --benchmark/--trace/--dump and does "
                "not support --stream materialize");
    } else if (benchmark.empty() == trace_path.empty()) {
        return usage(); // exactly one source required
    }

    std::vector<trace::TraceSpec> mix_specs;
    std::string mix_name;
    if (mix_mode) {
        const auto names = splitCommas(mix_arg);
        fatalIf(names.size() < 2, ErrorCode::Config,
                "--mix needs >= 2 comma-separated benchmarks");
        for (const auto& n : names) {
            mix_specs.push_back(resolveBenchmark(n, insts, seed));
            if (!mix_name.empty())
                mix_name += "+";
            mix_name += mix_specs.back().displayName();
        }
    }

    std::optional<trace::TraceSpec> spec;
    if (mix_mode) {
        // resolved above; the single-source paths below are skipped
    } else if (!trace_path.empty()) {
        spec.emplace(trace::TraceSpec::file(trace_path));
    } else if (auto fam = streamFamilySpec(benchmark, insts, seed)) {
        spec = std::move(fam);
    } else {
        const auto idx = benchmarkIndex(benchmark);
        if (!idx) {
            std::fprintf(stderr, "unknown benchmark '%s' (--list)\n",
                         benchmark.c_str());
            return 2;
        }
        spec.emplace(*idx >= 1000
                         ? trace::TraceSpec::heldOut(*idx - 1000,
                                                     insts, seed)
                         : trace::TraceSpec::suite(*idx, insts, seed));
    }

    if (!dump_path.empty()) {
        // Stream straight to the chunked v4 format, one 4096-record
        // block per chunk: constant memory for any trace length,
        // atomic tmp+fsync+rename on disk.
        trace::ChunkedTraceWriter writer(dump_path,
                                         spec->displayName());
        const auto src = spec->open(oopts);
        writer.appendAll(*src);
        writer.finish();
        std::printf("wrote %s (%llu instructions)\n", dump_path.c_str(),
                    static_cast<unsigned long long>(
                        writer.instructions()));
        return 0;
    }

    // --stream materialize: load the whole record sequence up front
    // (the pre-streaming behavior) and run from memory. Identical
    // reports, maximal RSS — useful mainly as the equivalence anchor.
    std::optional<trace::Trace> held;
    if (!mix_mode && stream_mode == "materialize") {
        held.emplace(trace::materialize(*spec->open(oopts)));
        spec.emplace(trace::TraceSpec::borrowed(*held));
    }

    sim::SingleCoreConfig cfg;
    cfg.hierarchy.llcBytes = llc_kb * 1024;
    cfg.hierarchy.prefetchEnabled = prefetch;
    cfg.warmupFraction = warmup;
    cfg.seed = seed;
    const bool telemetry =
        !metrics_path.empty() || !trace_out_path.empty() || epoch > 0;
    if (telemetry) {
        cfg.telemetry.enabled = true;
        if (epoch > 0)
            cfg.telemetry.epochAccesses = epoch;
    }

    // Multi-tenant mix configuration (the driver validates the
    // partition against the LLC geometry and core count).
    sim::MultiCoreConfig mcfg;
    if (mix_mode) {
        const unsigned ncores =
            static_cast<unsigned>(mix_specs.size());
        mcfg.hierarchy.llcBytes = llc_kb * 1024;
        mcfg.hierarchy.prefetchEnabled = prefetch;
        mcfg.seed = seed;
        // FIESTA warmup is a total budget across cores; keep the
        // per-core share equal to the single-core fraction.
        mcfg.warmupInstructions = static_cast<InstCount>(
            warmup * static_cast<double>(insts) *
            static_cast<double>(ncores));
        if (measure_cycles > 0)
            mcfg.measureCycles = measure_cycles;
        if (telemetry) {
            mcfg.telemetry.enabled = true;
            if (epoch > 0)
                mcfg.telemetry.epochAccesses = epoch;
        }
        if (!partition.empty()) {
            fatalIf(partition.size() != mix_specs.size(),
                    ErrorCode::Config,
                    "--partition needs one way count per --mix entry");
            mcfg.tenancy.tenants.resize(ncores);
            for (unsigned t = 0; t < ncores; ++t)
                mcfg.tenancy.tenants[t].ways = partition[t];
            if (!slo_mpki.empty()) {
                fatalIf(slo_mpki.size() != 1 &&
                            slo_mpki.size() != mix_specs.size(),
                        ErrorCode::Config,
                        "--slo-mpki wants one value (tenant 0) or "
                        "one per tenant");
                for (std::size_t t = 0; t < slo_mpki.size(); ++t)
                    mcfg.tenancy.tenants[t].sloMpki = slo_mpki[t];
            }
            mcfg.tenancy.qos = qos_cfg;
            mcfg.tenancy.qos.enabled = qos;
        } else {
            fatalIf(!slo_mpki.empty() || qos || require_slo,
                    ErrorCode::Config,
                    "--slo-mpki/--qos/--require-slo need --partition");
        }
    }

    const auto policies = splitCommas(policy);
    fatalIf(policies.empty(), "empty --policy list");

    // --resume implies continuing the same journal; a first run with
    // no journal yet is a cold start, not an error.
    if (!ropts.resumePath.empty()) {
        if (ropts.journalPath.empty())
            ropts.journalPath = ropts.resumePath;
        std::ifstream probe(ropts.resumePath);
        if (!probe) {
            std::fprintf(stderr,
                         "note: resume journal %s not found; "
                         "starting cold\n",
                         ropts.resumePath.c_str());
            ropts.resumePath.clear();
        }
    }
    const bool resilience = !ropts.journalPath.empty() ||
                            !ropts.resumePath.empty() ||
                            ropts.timeoutSeconds > 0.0 ||
                            ropts.maxRetries > 0;
    const bool profiling = ropts.profile || ropts.progressStderr ||
                           !ropts.progressJsonlPath.empty();

    if (!mix_mode && policies.size() == 1 && json_path.empty() &&
        csv_path.empty() && !resilience && !telemetry && !profiling) {
        // Single-run path: the detailed per-run report.
        const auto src = spec->open(oopts);
        const auto r =
            policy == "MIN"
                ? sim::runSingleCoreMin(*src, cfg)
                : sim::runSingleCore(
                      *src, sim::PolicyRegistry::make(policy), cfg);
        std::printf("benchmark : %s\n", r.benchmark.c_str());
        std::printf("policy    : %s\n", r.policy.c_str());
        std::printf("insts     : %llu\n",
                    static_cast<unsigned long long>(r.instructions));
        std::printf("cycles    : %llu\n",
                    static_cast<unsigned long long>(r.cycles));
        std::printf("IPC       : %.4f\n", r.ipc);
        std::printf("LLC MPKI  : %.3f (%llu demand misses, %llu "
                    "accesses)\n",
                    r.mpki,
                    static_cast<unsigned long long>(r.llcDemandMisses),
                    static_cast<unsigned long long>(
                        r.llcDemandAccesses));
        std::printf("bypasses  : %llu\n",
                    static_cast<unsigned long long>(r.llcBypasses));
        return 0;
    }

    // Batch path: one request per policy, run in parallel. Every
    // worker opens its own stream over the shared spec.
    std::vector<runner::RunRequest> batch;
    batch.reserve(policies.size());
    for (const auto& p : policies) {
        if (mix_mode)
            batch.push_back(runner::RunRequest::multiCore(
                mix_specs, runner::PolicySpec::byName(p), mcfg));
        else
            batch.push_back(runner::RunRequest::singleCore(
                *spec, runner::PolicySpec::byName(p), cfg));
        batch.back().openOptions = oopts;
    }

    const runner::ExperimentRunner pool(jobs);
    const auto set = pool.run(batch, ropts);

    const std::string display =
        mix_mode ? mix_name : spec->displayName();
    std::printf("# %s: %zu policies, %u worker(s), %.2fs wall\n",
                display.c_str(), set.results.size(), set.jobs,
                set.wallSeconds);
    std::printf("%-12s %10s %10s %14s %10s\n", "policy", "IPC",
                "MPKI", "insts", "misses");
    bool failed = false;
    for (const auto& r : set.results) {
        if (!r.ok()) {
            std::printf("%-12s FAILED [%s]: %s\n", r.policy.c_str(),
                        errorCodeName(r.errorCode), r.error.c_str());
            failed = true;
            continue;
        }
        std::printf("%-12s %10.4f %10.3f %14llu %10llu\n",
                    r.policy.c_str(), r.ipc, r.mpki,
                    static_cast<unsigned long long>(r.instructions),
                    static_cast<unsigned long long>(
                        r.llcDemandMisses));
        for (std::size_t t = 0; t < r.tenants.size(); ++t) {
            const auto& o = r.tenants[t];
            std::printf("  tenant %zu: ways %u -> %u, mpki %.3f",
                        t, o.waysInitial, o.waysFinal, o.mpki);
            if (o.sloMpki > 0.0) {
                const bool met = o.mpki <= o.sloMpki;
                std::printf(" (slo %.3f %s)", o.sloMpki,
                            met ? "met" : "VIOLATED");
                if (require_slo && !met)
                    failed = true;
            }
            std::printf("\n");
        }
        if (!r.tenants.empty())
            std::printf("  qos resizes: %zu\n", r.qosSchedule.size());
    }

    const runner::ReportOptions opts{timing};
    if (!json_path.empty()) {
        runner::writeFile(json_path, runner::toJson(set, opts));
        std::fprintf(stderr, "wrote %s\n", json_path.c_str());
    }
    if (!csv_path.empty()) {
        runner::writeFile(csv_path, runner::toCsv(set, opts));
        std::fprintf(stderr, "wrote %s\n", csv_path.c_str());
    }
    if (!metrics_path.empty()) {
        runner::writeFile(metrics_path, runner::toMetricsJson(set));
        std::fprintf(stderr, "wrote %s\n", metrics_path.c_str());
    }
    if (!trace_out_path.empty()) {
        runner::writeFile(trace_out_path, runner::toTraceJson(set));
        std::fprintf(stderr, "wrote %s\n", trace_out_path.c_str());
    }
    if (!prof_out_path.empty()) {
        std::vector<prof::BenchRun> bruns;
        for (const auto& r : set.results) {
            if (!r.profile)
                continue; // resumed runs carry no profile
            prof::BenchRun br;
            br.label = r.label + "/" + r.policy;
            br.benchmark = r.benchmark;
            br.policy = r.policy;
            br.profile = *r.profile;
            bruns.push_back(std::move(br));
        }
        runner::writeFile(
            prof_out_path,
            prof::benchJson(display, bruns, prof::machineInfo(),
                            prof::gitSha()));
        std::fprintf(stderr, "wrote %s\n", prof_out_path.c_str());
    }
    return failed ? 1 : 0;
}

} // namespace

/**
 * @file
 * Miss-ratio-curve profiler: one streaming pass per workload over the
 * src/mrc/ engine, emitting the deterministic mrp.mrc.v1 corpus
 * document — the demand miss ratio of an LRU LLC at every profiled
 * capacity, behind the simulator's exact L1/L2 filter.
 *
 * Usage:
 *   mrp_mrc_cli [--workloads I,J,...] [--corpus FAM[,FAM...]]
 *               [--insts N] [--seed N] [--sizes-kb A,B,...]
 *               [--mode exact|shards|shards-adj] [--rate-log2 K]
 *               [--max-samples N] [--warmup F] [--jobs N]
 *               [--decode-ahead] [--out FILE]
 *               [--check-sim] [--tolerance-pp X]
 *               [--suggest-partition --llc-kb N --llc-ways W
 *                [--min-ways M] [--knee-fraction F]]
 *
 * --workloads profiles suite traces; --corpus the streaming families
 * ("zipf[:THETA]", "blkio", "phase") — the same corpus vocabulary the
 * sweep CLIs use. One pass produces every size on the ladder at once;
 * that is the whole point of the engine versus running a simulation
 * per size.
 *
 * --suggest-partition treats the corpus as one tenant per workload
 * and emits a knee-based LLC way split for the multi-tenant driver
 * (mrp_sim_cli --partition ...): each tenant's MRC knee — the
 * smallest profiled capacity capturing --knee-fraction of its
 * achievable miss-ratio reduction — sets its share of --llc-ways by
 * largest-remainder rounding over an --llc-kb cache.
 *
 * --check-sim closes the loop: after profiling it simulates an LRU
 * LLC (prefetching off — the configuration the stack model mirrors)
 * at every profiled size and compares demand miss ratios. Any
 * |profile - simulation| above --tolerance-pp percentage points (default
 * 2) fails the run with exit code 1 — the CI mrc-smoke gate.
 *
 * The document is byte-identical at any --jobs and for any delivery
 * mode (--decode-ahead, chunking), like every report in this repo.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "mrc/engine.hpp"
#include "mrc/partition_advisor.hpp"
#include "mrc/profile.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/report.hpp"
#include "sweep/objective.hpp"

namespace {

using namespace mrp;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: mrp_mrc_cli [--workloads I,J,...] "
        "[--corpus FAM[,FAM...]]\n"
        "       [--insts N] [--seed N] [--sizes-kb A,B,...]\n"
        "       [--mode exact|shards|shards-adj] [--rate-log2 K]\n"
        "       [--max-samples N] [--warmup F] [--jobs N]\n"
        "       [--decode-ahead] [--out FILE]\n"
        "       [--check-sim] [--tolerance-pp X]\n"
        "       [--suggest-partition --llc-kb N --llc-ways W\n"
        "        [--min-ways M] [--knee-fraction F]]\n");
    return 2;
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

struct Options
{
    std::vector<unsigned> workloads;
    std::vector<std::string> corpusFamilies;
    InstCount insts = 400000;
    std::uint64_t seed = 0;
    mrc::MrcConfig mrc;
    unsigned jobs = 0;
    bool decodeAhead = false;
    std::string outPath;
    bool checkSim = false;
    double tolerancePp = 2.0;
    bool suggestPartition = false;
    mrc::PartitionAdvisorConfig advisor;
};

/** The corpus at full length: suite indices and/or family names. */
std::vector<trace::TraceSpec>
buildCorpus(const Options& o)
{
    std::vector<trace::TraceSpec> corpus;
    for (const unsigned w : o.workloads)
        corpus.push_back(trace::TraceSpec::suite(w, o.insts, o.seed));
    for (std::size_t f = 0; f < o.corpusFamilies.size(); ++f)
        corpus.push_back(sweep::corpusFamilySpec(o.corpusFamilies[f],
                                                 o.insts, o.seed + f));
    fatalIf(corpus.empty(), ErrorCode::Config,
            "need --workloads and/or --corpus");
    return corpus;
}

/**
 * Simulate an LRU LLC (prefetch off) at every profiled size of every
 * profile and compare demand miss ratios. Returns the count of
 * (workload, size) cells whose gap exceeds the tolerance.
 */
std::size_t
checkAgainstSimulation(const std::vector<trace::TraceSpec>& corpus,
                       const std::vector<mrc::MrcProfile>& profiles,
                       const Options& o)
{
    sim::SingleCoreConfig sim;
    sim.hierarchy = o.mrc.hierarchy;
    sim.hierarchy.prefetchEnabled = false;
    sim.warmupFraction = o.mrc.warmupFraction;
    const auto policy = runner::PolicySpec::byName("LRU");

    std::vector<runner::RunRequest> batch;
    for (std::size_t w = 0; w < profiles.size(); ++w) {
        for (const auto& pt : profiles[w].points) {
            sim.hierarchy.llcBytes = pt.bytes;
            batch.push_back(runner::RunRequest::singleCore(
                corpus[w], policy, sim));
            batch.back().openOptions.decodeAhead = o.decodeAhead;
        }
    }
    const runner::ExperimentRunner pool(o.jobs);
    const auto set = pool.run(batch);

    std::size_t failures = 0;
    std::size_t r = 0;
    for (std::size_t w = 0; w < profiles.size(); ++w) {
        for (const auto& pt : profiles[w].points) {
            const auto& res = set.results[r++];
            fatalIf(!res.ok(), res.errorCode,
                    "check-sim run failed: " + res.error);
            const double simRatio =
                res.llcDemandAccesses == 0
                    ? 0.0
                    : static_cast<double>(res.llcDemandMisses) /
                          static_cast<double>(res.llcDemandAccesses);
            const double gapPp =
                std::abs(pt.missRatio - simRatio) * 100.0;
            const bool bad = gapPp > o.tolerancePp;
            if (bad)
                ++failures;
            std::fprintf(stderr,
                         "%s%s @ %llu KB: mrc %.4f sim %.4f "
                         "(gap %.2f pp)\n",
                         bad ? "FAIL " : "", profiles[w].benchmark.c_str(),
                         static_cast<unsigned long long>(pt.bytes / 1024),
                         pt.missRatio, simRatio, gapPp);
        }
    }
    return failures;
}

int
run(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            fatalIf(i + 1 >= argc, ErrorCode::Config,
                    "missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workloads") {
            for (const auto& w : splitCommas(next()))
                o.workloads.push_back(static_cast<unsigned>(
                    std::strtoul(w.c_str(), nullptr, 10)));
        } else if (arg == "--corpus") {
            o.corpusFamilies = splitCommas(next());
        } else if (arg == "--insts") {
            o.insts = std::strtoull(next(), nullptr, 10);
            fatalIf(o.insts == 0, "--insts must be positive");
        } else if (arg == "--seed") {
            o.seed = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--sizes-kb") {
            for (const auto& s : splitCommas(next()))
                o.mrc.sizesBytes.push_back(
                    std::strtoull(s.c_str(), nullptr, 10) * 1024);
        } else if (arg == "--mode") {
            o.mrc.mode = mrc::parseMrcMode(next());
        } else if (arg == "--rate-log2") {
            o.mrc.rateLog2 = static_cast<unsigned>(
                std::strtoul(next(), nullptr, 10));
        } else if (arg == "--max-samples") {
            o.mrc.maxSamples = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--warmup") {
            o.mrc.warmupFraction = std::atof(next());
        } else if (arg == "--jobs") {
            o.jobs = static_cast<unsigned>(
                std::strtoul(next(), nullptr, 10));
        } else if (arg == "--decode-ahead") {
            o.decodeAhead = true;
        } else if (arg == "--out") {
            o.outPath = next();
        } else if (arg == "--check-sim") {
            o.checkSim = true;
        } else if (arg == "--tolerance-pp") {
            o.tolerancePp = std::atof(next());
        } else if (arg == "--suggest-partition") {
            o.suggestPartition = true;
        } else if (arg == "--llc-kb") {
            o.advisor.llcBytes =
                std::strtoull(next(), nullptr, 10) * 1024;
        } else if (arg == "--llc-ways") {
            o.advisor.llcWays = static_cast<unsigned>(
                std::strtoul(next(), nullptr, 10));
        } else if (arg == "--min-ways") {
            o.advisor.minWays = static_cast<unsigned>(
                std::strtoul(next(), nullptr, 10));
        } else if (arg == "--knee-fraction") {
            o.advisor.kneeFraction = std::atof(next());
        } else {
            return usage();
        }
    }

    const auto corpus = buildCorpus(o);
    trace::TraceSpec::OpenOptions opts;
    opts.decodeAhead = o.decodeAhead;
    const auto profiles =
        mrc::profileCorpus(corpus, o.mrc, o.jobs, opts);

    const std::string doc = mrc::corpusJson(profiles);
    if (!o.outPath.empty()) {
        runner::writeFile(o.outPath, doc);
        std::fprintf(stderr, "wrote %s\n", o.outPath.c_str());
    } else if (!o.suggestPartition) {
        std::fputs(doc.c_str(), stdout);
    }

    // One tenant per corpus entry: the advice document replaces the
    // profile corpus on stdout (use --out to keep both).
    if (o.suggestPartition) {
        const auto advice =
            mrc::suggestPartition(profiles, o.advisor);
        std::fputs(advice.toJson(o.advisor).c_str(), stdout);
        std::fprintf(stderr, "suggested --partition %s\n",
                     advice.partitionFlag().c_str());
    }

    if (o.checkSim &&
        checkAgainstSimulation(corpus, profiles, o) > 0)
        return 1;
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return run(argc, argv);
    } catch (const FatalError& e) {
        std::fprintf(stderr, "mrp_mrc_cli: %s [%s]\n", e.what(),
                     errorCodeName(e.code()));
        return 2;
    }
}

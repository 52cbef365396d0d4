/**
 * @file
 * The campaign behind `paper_figures`: every selected figure adds its
 * runs as RunRequests, identical requests collapse to one, the union
 * runs once on the ExperimentRunner, and each figure then prints a
 * pure view of the results.
 *
 * Requests name traces by canonical Suite/HeldOut specs, so
 * runner::requestJson is their identity key and MPPPB variants travel
 * as PolicySpec::mpppb data. At run time each spec is swapped for a
 * borrowed view of one trace the campaign generated once.
 *
 * The scale knobs (MRP_BENCH_INSTS, _MC_INSTS, _MIXES, _SETS, _CLIMB,
 * _JOBS) and `--jobs` are validated once, before anything is
 * generated; each figure applies its own default to an unset knob.
 */

#ifndef MRP_BENCH_CAMPAIGN_HPP
#define MRP_BENCH_CAMPAIGN_HPP

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "prof/clock.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/request_json.hpp"
#include "sim/multi_core.hpp"
#include "trace/mix.hpp"
#include "trace/workloads.hpp"

namespace mrp::bench {

/**
 * Parse @p text as a whole decimal number in [@p lo, @p hi]; anything
 * else (sign, blank, trailing bytes, overflow) throws
 * FatalError(Config) naming @p what.
 */
inline std::uint64_t
parseCount(const std::string& what, const std::string& text,
           std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t v = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    fatalIf(text.empty() || ec != std::errc() || ptr != end || v < lo ||
                v > hi,
            ErrorCode::Config,
            what + " must be a whole number in [" + std::to_string(lo) +
                ", " + std::to_string(hi) + "], got \"" + text + "\"");
    return v;
}

/** The scale knobs; an unset knob takes each figure's default. */
struct Knobs
{
    std::optional<std::uint64_t> insts;   //!< MRP_BENCH_INSTS
    std::optional<std::uint64_t> mcInsts; //!< MRP_BENCH_MC_INSTS
    std::optional<std::uint64_t> mixes;   //!< MRP_BENCH_MIXES
    std::optional<std::uint64_t> sets;    //!< MRP_BENCH_SETS
    std::optional<std::uint64_t> climb;   //!< MRP_BENCH_CLIMB
    /** `--jobs N`, else MRP_BENCH_JOBS, else 0 (all CPUs). */
    unsigned jobs = 0;

    /** Read and validate the environment; @p jobs_arg is the
     * `--jobs` value, if given. The caps keep a typo from asking for
     * terabytes of traces or years of simulation. */
    static Knobs
    fromEnv(const std::optional<std::string>& jobs_arg)
    {
        constexpr std::uint64_t kMaxInsts = 1'000'000'000;
        constexpr std::uint64_t kMaxCount = 100'000;
        constexpr std::uint64_t kMaxJobs = 256;
        const auto knob = [](const char* name, std::uint64_t lo,
                             std::uint64_t hi)
            -> std::optional<std::uint64_t> {
            const char* s = std::getenv(name);
            if (s == nullptr)
                return std::nullopt;
            return parseCount(name, s, lo, hi);
        };
        Knobs k;
        k.insts = knob("MRP_BENCH_INSTS", 1, kMaxInsts);
        k.mcInsts = knob("MRP_BENCH_MC_INSTS", 1, kMaxInsts);
        k.mixes = knob("MRP_BENCH_MIXES", 1, kMaxCount);
        k.sets = knob("MRP_BENCH_SETS", 1, kMaxCount);
        k.climb = knob("MRP_BENCH_CLIMB", 1, kMaxCount);
        const auto env_jobs = knob("MRP_BENCH_JOBS", 0, kMaxJobs);
        k.jobs = static_cast<unsigned>(
            jobs_arg ? parseCount("--jobs", *jobs_arg, 0, kMaxJobs)
                     : env_jobs.value_or(0));
        return k;
    }
};

class Campaign
{
  public:
    /** Canonical spec of suite benchmark @p idx at @p insts; run()
     * generates its trace once. */
    trace::TraceSpec
    suite(unsigned idx, InstCount insts)
    {
        return want(trace::TraceSpec::suite(idx, insts),
                    [=] { return trace::makeSuiteTrace(idx, insts); });
    }

    /** As suite(), for held-out workload @p idx. */
    trace::TraceSpec
    heldOut(unsigned idx, InstCount insts)
    {
        return want(trace::TraceSpec::heldOut(idx, insts),
                    [=] { return trace::makeHeldOutTrace(idx, insts); });
    }

    /** Queue @p request unless an identical one is queued; returns the
     * id of its result. */
    std::size_t
    add(runner::RunRequest request)
    {
        ++requested_;
        const auto [it, fresh] =
            ids_.try_emplace(runner::requestJson(request), batch_.size());
        if (fresh)
            batch_.push_back(std::move(request));
        return it->second;
    }

    /** One 4-core run of @p policy per mix over @p insts-instruction
     * regions, in mix order. */
    std::vector<std::size_t>
    addMixes(const std::vector<trace::Mix>& mixes, InstCount insts,
             const runner::PolicySpec& policy)
    {
        std::vector<std::size_t> ids;
        for (const auto& mix : mixes) {
            const auto& b = mix.benchmarks;
            ids.push_back(add(runner::RunRequest::multiCore(
                std::array{suite(b[0], insts), suite(b[1], insts),
                           suite(b[2], insts), suite(b[3], insts)},
                policy)));
        }
        return ids;
    }

    /** Ask run() for the standalone LRU IPC (SingleIPC_i of §4.5) of
     * every benchmark in @p mixes over @p insts instructions. */
    void
    addStandaloneIpc(const std::vector<trace::Mix>& mixes, InstCount insts)
    {
        for (const auto& mix : mixes)
            for (const unsigned b : mix.benchmarks)
                standalone_.try_emplace(suite(b, insts).toJson(), 0.0);
    }

    /**
     * Generate the traces and standalone IPCs, run every distinct
     * request once, all on @p jobs workers (0 = all CPUs), then
     * release the traces. Throws FatalError if a run failed.
     */
    void
    run(unsigned jobs)
    {
        if (jobs == 0)
            jobs = std::max(1u, std::thread::hardware_concurrency());
        std::vector<TraceSlot*> slots;
        for (auto& [key, slot] : traces_)
            slots.push_back(&slot);
        parallelFor(slots.size(), jobs, [&](std::size_t i) {
            slots[i]->trace = slots[i]->make();
        });
        std::vector<std::pair<const trace::Trace*, double*>> cells;
        for (auto& [key, ipc] : standalone_)
            cells.emplace_back(&*traces_.at(key).trace, &ipc);
        parallelFor(cells.size(), jobs, [&](std::size_t i) {
            trace::MaterializedTraceSource src(*cells[i].first);
            *cells[i].second =
                sim::standaloneIpc(src, sim::MultiCoreConfig{});
        });

        if (!batch_.empty()) {
            for (auto& request : batch_)
                for (auto& spec : request.sources)
                    spec = trace::TraceSpec::borrowed(
                        *traces_.at(spec.toJson()).trace);
            auto set = runner::ExperimentRunner(jobs).run(batch_);
            InstCount insts = 0;
            for (const auto& r : set.results) {
                fatalIf(!r.ok(),
                        r.label + " under " + r.policy + ": " + r.error);
                insts += r.instructions;
            }
            std::fprintf(stderr,
                         "# batch: %zu runs (%zu requested), %u worker(s), "
                         "%.2fs wall, %.0f simulated insts/sec\n",
                         set.results.size(), requested_, set.jobs,
                         set.wallSeconds,
                         prof::ratePerSecond(insts, set.wallSeconds));
            results_ = std::move(set.results);
        }
        batch_.clear();
        ids_.clear();
        traces_.clear();
    }

    const runner::RunResult&
    operator[](std::size_t id) const
    {
        return results_.at(id);
    }

    /** Σ_c IPC_c / SingleIPC_c of mix run @p id (§4.5), after run();
     * the mix's standalone IPCs must have been asked for. */
    double
    weightedSpeedup(std::size_t id, const trace::Mix& mix,
                    InstCount insts) const
    {
        double ws = 0.0;
        for (unsigned c = 0; c < 4; ++c)
            ws += results_.at(id).coreIpc[c] /
                  standalone_.at(
                      trace::TraceSpec::suite(mix.benchmarks[c], insts)
                          .toJson());
        return ws;
    }

  private:
    struct TraceSlot
    {
        std::function<trace::Trace()> make;
        std::optional<trace::Trace> trace; //!< set by run()
    };

    trace::TraceSpec
    want(trace::TraceSpec spec, std::function<trace::Trace()> make)
    {
        traces_.try_emplace(spec.toJson(), TraceSlot{std::move(make), {}});
        return spec;
    }

    /** fn(i) for every i in [0, n) on up to @p jobs threads; the first
     * exception a call throws is rethrown once all threads joined. */
    template <class Fn>
    static void
    parallelFor(std::size_t n, unsigned jobs, const Fn& fn)
    {
        std::atomic<std::size_t> next{0};
        std::mutex mutex;
        std::exception_ptr error; // guarded by mutex
        {
            std::vector<std::jthread> pool(std::min<std::size_t>(jobs, n));
            for (auto& t : pool)
                t = std::jthread([&] {
                    try {
                        for (std::size_t i = next++; i < n; i = next++)
                            fn(i);
                    } catch (...) {
                        const std::lock_guard<std::mutex> lock(mutex);
                        if (!error)
                            error = std::current_exception();
                    }
                });
        }
        if (error)
            std::rethrow_exception(error);
    }

    std::map<std::string, TraceSlot> traces_;  //!< by spec JSON
    std::map<std::string, std::size_t> ids_;   //!< by request JSON
    std::map<std::string, double> standalone_; //!< by spec JSON
    std::vector<runner::RunRequest> batch_;
    std::size_t requested_ = 0; //!< add() calls, duplicates included
    std::vector<runner::RunResult> results_;
};

} // namespace mrp::bench

#endif // MRP_BENCH_CAMPAIGN_HPP

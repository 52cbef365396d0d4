/**
 * @file
 * The benchmark's own instrumentation: decorators that time calls into
 * the trace layer (TraceSource::nextChunk) and the LLC policy layer
 * (every LlcPolicy virtual) from outside, plus the traced closed-loop
 * executor that runs a RunRequest batch with both decorators installed.
 *
 * Nothing here touches the simulator's internals. A decorated run
 * makes the same calls in the same order as an undecorated one, so its
 * runner report is byte-identical (decorator_test.cpp checks this).
 *
 * Cost model: a clock pair around every policy call doubles an LRU run,
 * so policy hooks time only 1 in kSampleEvery calls, count every call,
 * subtract the calibrated cost of one clock pair from each sample and
 * scale the sampled time up to all calls. nextChunk() is called once per
 * 64Ki records, so it is timed on every call.
 */

#ifndef PERFBENCH_TRACED_HPP
#define PERFBENCH_TRACED_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/llc_policy.hpp"
#include "runner/run_request.hpp"
#include "trace/source.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Policy hooks time one call in this many (a power of two). */
inline constexpr std::uint64_t kSampleEvery = 64;

/** Calls and sampled host time of one hook. */
struct HookStat
{
    std::uint64_t calls = 0;
    std::uint64_t sampled = 0;
    std::int64_t sampledNs = 0;

    /** Estimated busy seconds over all calls, given the cost of one
     * clock pair in ns. */
    double seconds(double clock_ns) const;
    void add(const HookStat& o);
};

/** Records the duration of one sampled call into a HookStat. */
class SampleTimer
{
  public:
    explicit SampleTimer(HookStat& h) : h_(h), start_(Clock::now()) {}
    ~SampleTimer()
    {
        h_.sampledNs += std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - start_)
                            .count();
        ++h_.sampled;
    }
    SampleTimer(const SampleTimer&) = delete;
    SampleTimer& operator=(const SampleTimer&) = delete;

  private:
    HookStat& h_;
    Clock::time_point start_;
};

/** Call @p f, counting it in @p h and timing 1 in kSampleEvery calls. */
template <class F>
decltype(auto)
sampledCall(HookStat& h, F&& f)
{
    if ((h.calls++ & (kSampleEvery - 1)) != 0)
        return f();
    const SampleTimer timer(h);
    return f();
}

/** The timed LlcPolicy hooks, in report order. */
enum Hook { kOnHit, kOnMiss, kShouldBypass, kVictim, kOnFill, kOnEvict,
            kHookCount };
inline constexpr std::array<const char*, kHookCount> kHookNames = {
    "on_hit", "on_miss", "should_bypass", "victim", "on_fill", "on_evict"};

/** What one TimedPolicy saw: per-hook timers plus LLC event counts
 * (whole run, warmup included; hits/misses are demand accesses). */
struct PolicyStats
{
    std::array<HookStat, kHookCount> hooks{};
    std::uint64_t demandHits = 0;
    std::uint64_t demandMisses = 0;
    std::uint64_t bypasses = 0;
    std::uint64_t fills = 0;
    std::uint64_t evictions = 0;

    std::uint64_t calls() const;
    double busySeconds(double clock_ns) const;
    void add(const PolicyStats& o);
};

/** What one TimedSource saw: every nextChunk() call timed. */
struct SourceStats
{
    std::uint64_t calls = 0;
    std::uint64_t records = 0;
    std::int64_t ns = 0;

    double seconds(double clock_ns) const;
    void add(const SourceStats& o);
};

/** Forwards every LlcPolicy virtual to @p inner, timing and counting. */
class TimedPolicy final : public mrp::cache::LlcPolicy
{
  public:
    TimedPolicy(std::unique_ptr<mrp::cache::LlcPolicy> inner,
                PolicyStats& stats)
        : inner_(std::move(inner)), stats_(stats)
    {
    }

    std::string name() const override { return inner_->name(); }
    void onHit(const mrp::cache::AccessInfo& info, std::uint32_t set,
               std::uint32_t way) override;
    void onMiss(const mrp::cache::AccessInfo& info,
                std::uint32_t set) override;
    bool shouldBypass(const mrp::cache::AccessInfo& info,
                      std::uint32_t set) override;
    std::uint32_t victimWay(const mrp::cache::AccessInfo& info,
                            std::uint32_t set) override;
    mrp::cache::WayMask fillWays(const mrp::cache::AccessInfo& info,
                                 std::uint32_t set) override;
    std::uint32_t victimWayIn(const mrp::cache::AccessInfo& info,
                              std::uint32_t set,
                              mrp::cache::WayMask mask) override;
    std::uint32_t
    tenantOf(const mrp::cache::AccessInfo& info) const override
    {
        return inner_->tenantOf(info);
    }
    void onFill(const mrp::cache::AccessInfo& info, std::uint32_t set,
                std::uint32_t way) override;
    void onEvict(std::uint32_t set, std::uint32_t way) override;
    void
    attachTelemetry(mrp::telemetry::MetricsRegistry& registry) override
    {
        inner_->attachTelemetry(registry);
    }

  private:
    std::unique_ptr<mrp::cache::LlcPolicy> inner_;
    PolicyStats& stats_;
};

/** Forwards a TraceSource, timing every nextChunk() call. */
class TimedSource final : public mrp::trace::TraceSource
{
  public:
    TimedSource(std::unique_ptr<mrp::trace::TraceSource> inner,
                SourceStats& stats)
        : inner_(std::move(inner)), stats_(stats)
    {
    }

    const std::string& name() const override { return inner_->name(); }
    mrp::InstCount instructions() const override
    {
        return inner_->instructions();
    }
    std::span<const mrp::trace::Record> nextChunk() override;
    void reset() override { inner_->reset(); }

  private:
    std::unique_ptr<mrp::trace::TraceSource> inner_;
    SourceStats& stats_;
};

/**
 * @p policy with its factory wrapped so every instance it builds is a
 * TimedPolicy reporting into @p stats (installed through
 * PolicySpec::custom; the report name is unchanged).
 */
mrp::runner::PolicySpec timedPolicy(const mrp::runner::PolicySpec& policy,
                                    PolicyStats& stats);

/** Median host cost of one back-to-back Clock::now() pair, in ns. */
double calibrateClockNs();

/** The spans of one traced run, keyed by its request index. Times are
 * seconds from the start of the traced batch. */
struct RunSpan
{
    std::size_t index = 0;
    unsigned worker = 0;
    double startS = 0.0;
    double endS = 0.0;
    SourceStats trace;
    PolicyStats policy;
};

struct TracedBatch
{
    mrp::runner::RunSet set; //!< same results as ExperimentRunner::run
    std::vector<RunSpan> spans; //!< spans[i] belongs to request i
};

/**
 * Execute @p batch as a closed loop on @p jobs workers (each takes the
 * next request when its current run finishes), with every source
 * wrapped in a TimedSource and every policy in a TimedPolicy. Calls
 * sim::runSingleCore / sim::runMultiCore directly, since a TraceSpec
 * cannot carry a decorator through the runner.
 */
TracedBatch runTraced(const std::vector<mrp::runner::RunRequest>& batch,
                      unsigned jobs);

/**
 * Run @p fn(i, worker) for every i in [0, n) on up to @p jobs threads,
 * each taking the next index when it finishes one. Rethrows the first
 * exception after all threads have joined.
 */
void parallelFor(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t, unsigned)>& fn);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HPP

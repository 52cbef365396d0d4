#include "traced.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <variant>

#include "sim/multi_core.hpp"
#include "sim/policies.hpp"
#include "sim/single_core.hpp"
#include "util/logging.hpp"

namespace perfbench {

using mrp::cache::AccessInfo;
using mrp::cache::isDemand;

namespace {

std::int64_t
elapsedNs(Clock::time_point since)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - since)
        .count();
}

double
secondsSince(Clock::time_point since)
{
    return std::chrono::duration<double>(Clock::now() - since).count();
}

mrp::sim::PolicyFactory
resolveFactory(const mrp::runner::PolicySpec& p)
{
    if (p.factory)
        return p.factory;
    if (p.mpppbConfig)
        return mrp::sim::makeMpppbFactory(*p.mpppbConfig);
    return mrp::sim::PolicyRegistry::make(p.name);
}

std::string
mixName(const std::vector<mrp::trace::TraceSpec>& sources)
{
    std::string out;
    for (const auto& s : sources) {
        if (!out.empty())
            out += "+";
        out += s.displayName();
    }
    return out;
}

/** One request with decorated sources and policy; fills @p out the way
 * the runner does, so the two reports compare byte for byte. */
void
executeTraced(const mrp::runner::RunRequest& req, RunSpan& span,
              mrp::runner::RunResult& out)
{
    const auto policy = timedPolicy(req.policy, span.policy);
    std::vector<std::unique_ptr<TimedSource>> opened;
    std::vector<mrp::trace::TraceSource*> sources;
    for (const auto& spec : req.sources) {
        opened.push_back(std::make_unique<TimedSource>(
            spec.open(req.openOptions), span.trace));
        sources.push_back(opened.back().get());
    }

    if (req.isMultiCore()) {
        const auto& cfg = std::get<mrp::sim::MultiCoreConfig>(req.config);
        const auto r = mrp::sim::runMultiCore(
            std::span<mrp::trace::TraceSource* const>(sources),
            policy.factory, cfg);
        out.ipc = 0.0;
        out.instructions = 0;
        out.coreIpc.assign(r.ipc.begin(), r.ipc.end());
        for (std::size_t c = 0; c < r.ipc.size(); ++c) {
            out.ipc += r.ipc[c];
            out.instructions += r.instructions[c];
        }
        out.llcDemandMisses = r.llcDemandMisses;
        out.mpki = r.mpki;
        out.tenants = r.tenants;
        out.qosSchedule = r.qosSchedule;
        out.telemetry = r.telemetry;
        return;
    }

    const auto& cfg = std::get<mrp::sim::SingleCoreConfig>(req.config);
    const auto r = mrp::sim::runSingleCore(*sources[0], policy.factory, cfg);
    out.policy = r.policy;
    out.ipc = r.ipc;
    out.mpki = r.mpki;
    out.instructions = r.instructions;
    out.llcDemandAccesses = r.llcDemandAccesses;
    out.llcDemandMisses = r.llcDemandMisses;
    out.llcBypasses = r.llcBypasses;
    out.telemetry = r.telemetry;
}

mrp::runner::RunResult
runOneTraced(const mrp::runner::RunRequest& req, std::size_t index,
             RunSpan& span)
{
    const auto stamp = [&](mrp::runner::RunResult& out) {
        out.index = index;
        out.benchmark = mixName(req.sources);
        out.policy = req.policy.name;
        out.label = req.label.empty() ? out.benchmark : req.label;
        out.multiCore = req.isMultiCore();
        out.seed = std::visit([](const auto& c) { return c.seed; },
                              req.config);
    };
    mrp::runner::RunResult out;
    stamp(out);
    const auto start = Clock::now();
    try {
        executeTraced(req, span, out);
    } catch (const mrp::FatalError& e) {
        out = {};
        stamp(out);
        out.error = e.what();
        out.errorCode = e.code();
    } catch (const std::exception& e) {
        out = {};
        stamp(out);
        out.error = e.what();
        out.errorCode = mrp::ErrorCode::Internal;
    }
    out.wallSeconds = secondsSince(start);
    if (out.wallSeconds > 0.0 && out.instructions > 0)
        out.instsPerSecond =
            static_cast<double>(out.instructions) / out.wallSeconds;
    return out;
}

} // namespace

double
HookStat::seconds(double clock_ns) const
{
    if (sampled == 0)
        return 0.0;
    const double net = std::max(
        0.0, static_cast<double>(sampledNs) -
                 static_cast<double>(sampled) * clock_ns);
    return net * 1e-9 * static_cast<double>(calls) /
           static_cast<double>(sampled);
}

void
HookStat::add(const HookStat& o)
{
    calls += o.calls;
    sampled += o.sampled;
    sampledNs += o.sampledNs;
}

std::uint64_t
PolicyStats::calls() const
{
    std::uint64_t n = 0;
    for (const auto& h : hooks)
        n += h.calls;
    return n;
}

double
PolicyStats::busySeconds(double clock_ns) const
{
    double s = 0.0;
    for (const auto& h : hooks)
        s += h.seconds(clock_ns);
    return s;
}

void
PolicyStats::add(const PolicyStats& o)
{
    for (int h = 0; h < kHookCount; ++h)
        hooks[h].add(o.hooks[h]);
    demandHits += o.demandHits;
    demandMisses += o.demandMisses;
    bypasses += o.bypasses;
    fills += o.fills;
    evictions += o.evictions;
}

double
SourceStats::seconds(double clock_ns) const
{
    return std::max(0.0, static_cast<double>(ns) -
                             static_cast<double>(calls) * clock_ns) *
           1e-9;
}

void
SourceStats::add(const SourceStats& o)
{
    calls += o.calls;
    records += o.records;
    ns += o.ns;
}

void
TimedPolicy::onHit(const AccessInfo& info, std::uint32_t set,
                   std::uint32_t way)
{
    if (isDemand(info.type))
        ++stats_.demandHits;
    sampledCall(stats_.hooks[kOnHit],
                [&] { inner_->onHit(info, set, way); });
}

void
TimedPolicy::onMiss(const AccessInfo& info, std::uint32_t set)
{
    if (isDemand(info.type))
        ++stats_.demandMisses;
    sampledCall(stats_.hooks[kOnMiss], [&] { inner_->onMiss(info, set); });
}

bool
TimedPolicy::shouldBypass(const AccessInfo& info, std::uint32_t set)
{
    const bool bypass = sampledCall(stats_.hooks[kShouldBypass], [&] {
        return inner_->shouldBypass(info, set);
    });
    if (bypass)
        ++stats_.bypasses;
    return bypass;
}

std::uint32_t
TimedPolicy::victimWay(const AccessInfo& info, std::uint32_t set)
{
    return sampledCall(stats_.hooks[kVictim],
                       [&] { return inner_->victimWay(info, set); });
}

mrp::cache::WayMask
TimedPolicy::fillWays(const AccessInfo& info, std::uint32_t set)
{
    return inner_->fillWays(info, set);
}

std::uint32_t
TimedPolicy::victimWayIn(const AccessInfo& info, std::uint32_t set,
                         mrp::cache::WayMask mask)
{
    return sampledCall(stats_.hooks[kVictim], [&] {
        return inner_->victimWayIn(info, set, mask);
    });
}

void
TimedPolicy::onFill(const AccessInfo& info, std::uint32_t set,
                    std::uint32_t way)
{
    ++stats_.fills;
    sampledCall(stats_.hooks[kOnFill],
                [&] { inner_->onFill(info, set, way); });
}

void
TimedPolicy::onEvict(std::uint32_t set, std::uint32_t way)
{
    ++stats_.evictions;
    sampledCall(stats_.hooks[kOnEvict],
                [&] { inner_->onEvict(set, way); });
}

std::span<const mrp::trace::Record>
TimedSource::nextChunk()
{
    const auto start = Clock::now();
    const auto chunk = inner_->nextChunk();
    stats_.ns += elapsedNs(start);
    ++stats_.calls;
    stats_.records += chunk.size();
    return chunk;
}

mrp::runner::PolicySpec
timedPolicy(const mrp::runner::PolicySpec& policy, PolicyStats& stats)
{
    auto inner = resolveFactory(policy);
    return mrp::runner::PolicySpec::custom(
        policy.name,
        [inner = std::move(inner), &stats](
            const mrp::cache::CacheGeometry& geom, unsigned cores) {
            return std::make_unique<TimedPolicy>(inner(geom, cores),
                                                 stats);
        });
}

double
calibrateClockNs()
{
    constexpr int kPairs = 4001;
    std::vector<std::int64_t> d(kPairs);
    for (auto& x : d) {
        const auto t0 = Clock::now();
        x = elapsedNs(t0);
    }
    std::nth_element(d.begin(), d.begin() + kPairs / 2, d.end());
    return static_cast<double>(d[kPairs / 2]);
}

void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t, unsigned)>& fn)
{
    std::atomic<std::size_t> next{0};
    std::mutex err_mutex;
    std::exception_ptr err;
    const auto worker = [&](unsigned me) {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            try {
                fn(i, me);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(err_mutex);
                if (!err)
                    err = std::current_exception();
                next = n; // stop handing out work
                return;
            }
        }
    };
    const unsigned workers = static_cast<unsigned>(
        std::max<std::size_t>(1, std::min<std::size_t>(jobs, n)));
    std::vector<std::thread> threads;
    for (unsigned w = 1; w < workers; ++w)
        threads.emplace_back(worker, w);
    worker(0);
    for (auto& t : threads)
        t.join();
    if (err)
        std::rethrow_exception(err);
}

TracedBatch
runTraced(const std::vector<mrp::runner::RunRequest>& batch, unsigned jobs)
{
    TracedBatch out;
    out.set.results.resize(batch.size());
    out.spans.resize(batch.size());
    out.set.jobs = static_cast<unsigned>(
        std::max<std::size_t>(1, std::min<std::size_t>(jobs, batch.size())));
    const auto start = Clock::now();
    parallelFor(batch.size(), jobs, [&](std::size_t i, unsigned worker) {
        RunSpan& span = out.spans[i];
        span.index = i;
        span.worker = worker;
        span.startS = secondsSince(start);
        out.set.results[i] = runOneTraced(batch[i], i, span);
        span.endS = secondsSince(start);
    });
    out.set.wallSeconds = secondsSince(start);
    return out;
}

} // namespace perfbench

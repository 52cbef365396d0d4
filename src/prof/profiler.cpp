#include "prof/profiler.hpp"

#include <algorithm>
#include <mutex>

#include <sys/resource.h>

#include "util/logging.hpp"

namespace mrp::prof {

namespace detail {
thread_local Profiler* tlsProfiler = nullptr;
} // namespace detail

namespace {

using detail::tlsProfiler;

std::mutex siteMutex;
std::vector<const char*> siteLabels;

/** This thread's user/system CPU time in seconds. */
void
threadCpu(double* user, double* sys)
{
    rusage ru{};
#ifdef RUSAGE_THREAD
    ::getrusage(RUSAGE_THREAD, &ru);
#else
    ::getrusage(RUSAGE_SELF, &ru);
#endif
    *user = static_cast<double>(ru.ru_utime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    *sys = static_cast<double>(ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
}

long
processMaxRssKb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss; // kilobytes on Linux
}

/** Convert one node subtree into report form (no merging yet). */
PhaseStat
rawStat(const Profiler::Node& node, double tick_period)
{
    PhaseStat s;
    s.label = node.label;
    s.count = node.count;
    s.inclusiveSeconds = static_cast<double>(node.ticks) * tick_period;
    for (const auto& child : node.children)
        if (child)
            s.children.push_back(rawStat(*child, tick_period));
    return s;
}

/**
 * Merge same-label siblings (two call sites may time the same logical
 * phase — the report speaks in phases, not sites), sort children by
 * label for deterministic export, and derive exclusive times.
 */
void
normalize(PhaseStat& s)
{
    std::sort(s.children.begin(), s.children.end(),
              [](const PhaseStat& a, const PhaseStat& b) {
                  return a.label < b.label;
              });
    for (std::size_t i = 1; i < s.children.size();) {
        if (s.children[i].label != s.children[i - 1].label) {
            ++i;
            continue;
        }
        s.children[i - 1].count += s.children[i].count;
        s.children[i - 1].inclusiveSeconds +=
            s.children[i].inclusiveSeconds;
        for (auto& gc : s.children[i].children)
            s.children[i - 1].children.push_back(std::move(gc));
        s.children.erase(s.children.begin() + static_cast<long>(i));
    }
    double child_sum = 0.0;
    for (auto& c : s.children) {
        normalize(c);
        child_sum += c.inclusiveSeconds;
    }
    // Every entry is timed and a child's interval lies inside its
    // parent's, so Σ children ≤ parent holds in ticks; the clamp only
    // absorbs floating-point rounding of the tick-to-second scaling.
    s.exclusiveSeconds = std::max(0.0, s.inclusiveSeconds - child_sum);
}

} // namespace

SiteId
registerSite(const char* label)
{
    std::lock_guard<std::mutex> lock(siteMutex);
    siteLabels.push_back(label);
    return static_cast<SiteId>(siteLabels.size() - 1);
}

std::size_t
siteCount()
{
    std::lock_guard<std::mutex> lock(siteMutex);
    return siteLabels.size();
}

const PhaseStat*
PhaseStat::child(std::string_view name) const
{
    for (const auto& c : children)
        if (c.label == name)
            return &c;
    return nullptr;
}

void
ProfileReport::setThroughput(std::uint64_t insts, std::uint64_t accesses)
{
    instructions = insts;
    llcAccesses = accesses;
    instsPerSecond = ratePerSecond(insts, wallSeconds);
    accessesPerSecond = ratePerSecond(accesses, wallSeconds);
}

const PhaseStat*
findPhase(const PhaseStat& root, std::string_view label)
{
    if (root.label == label)
        return &root;
    for (const auto& c : root.children)
        if (const PhaseStat* hit = findPhase(c, label))
            return hit;
    return nullptr;
}

Profiler::Profiler()
    : current_(&root_), startTick_(tick())
{
    root_.label = "run";
    threadCpu(&startUser_, &startSys_);
}

Profiler::~Profiler()
{
    panicIf(tlsProfiler == this,
            "Profiler destroyed while still attached to this thread");
}

ProfileReport
Profiler::finish()
{
    panicIf(current_ != &root_,
            "Profiler::finish() called inside an open profiling scope");
    const std::uint64_t end_tick = tick();

    ProfileReport r;
    r.wallSeconds = wall_.seconds();
    double user = 0.0, sys = 0.0;
    threadCpu(&user, &sys);
    r.userSeconds = std::max(0.0, user - startUser_);
    r.sysSeconds = std::max(0.0, sys - startSys_);
    r.maxRssKb = processMaxRssKb();

    // Calibrate the tick period over this profiler's own lifetime.
    const std::uint64_t total_ticks = end_tick - startTick_;
    const double tick_period =
        total_ticks > 0
            ? r.wallSeconds / static_cast<double>(total_ticks)
            : 0.0;
    root_.ticks = total_ticks;
    root_.count = 1;
    r.root = rawStat(root_, tick_period);
    normalize(r.root);
    return r;
}

Attach::Attach(Profiler& p) : prev_(tlsProfiler)
{
    tlsProfiler = &p;
}

Attach::~Attach()
{
    tlsProfiler = prev_;
}

} // namespace mrp::prof

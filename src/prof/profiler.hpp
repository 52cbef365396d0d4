/**
 * @file
 * Self-profiling for the simulator: hierarchical scoped phase timers
 * plus per-run host-resource capture (wall/user/sys time, RSS
 * high-water).
 *
 * Design constraints, in priority order (deliberately the same bar as
 * mrp_telemetry):
 *  - Near-zero cost when detached: MRP_PROF_SCOPE reduces to one
 *    thread-local pointer load and a branch when no Profiler is
 *    attached to the current thread. Reports produced without a
 *    profiler are byte-identical to a build without instrumentation.
 *  - Exact when attached: scope enter/exit is an array-indexed child
 *    lookup (call sites are registered once and get dense integer
 *    ids) plus two TSC reads, and every entry is timed. Scopes mark
 *    coarse phases only (warmup/measure windows, MIN passes, sweep
 *    steps, trace generation and decode, MRC construction), never a
 *    per-access path. No allocation after a phase's first visit, no
 *    locks, no atomics.
 *  - One profiler per run, one run per thread: the parallel runner
 *    parallelizes *across* runs, so each worker thread attaches its
 *    own Profiler and the trees never share state.
 *
 * Lifecycle: construct a Profiler on the run's thread, attach it with
 * prof::Attach (RAII), execute the run, then finish() into an
 * immutable ProfileReport. Nested MRP_PROF_SCOPEs build an
 * inclusive-time tree; exclusive times are derived at finish() as
 * inclusive minus the sum of child inclusives.
 */

#ifndef MRP_PROF_PROFILER_HPP
#define MRP_PROF_PROFILER_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "prof/clock.hpp"

namespace mrp::prof {

/** Dense id of one MRP_PROF_SCOPE call site (process-wide). */
using SiteId = std::uint32_t;

/**
 * Register a scope call site and return its id. Called once per site
 * through the macro's function-local static; thread-safe. @p label
 * must be a string literal (the registry stores the pointer).
 */
SiteId registerSite(const char* label);

/** Number of registered sites (test/introspection aid). */
std::size_t siteCount();

/** One phase of the final report tree. */
struct PhaseStat
{
    std::string label;
    std::uint64_t count = 0;         //!< scope entries (always exact)
    double inclusiveSeconds = 0.0;   //!< self + children
    double exclusiveSeconds = 0.0;   //!< inclusive - Σ child inclusive
    std::vector<PhaseStat> children; //!< label-sorted

    /** Direct child by label, or null. */
    const PhaseStat* child(std::string_view name) const;
};

/** Everything finish() captures about one profiled run. */
struct ProfileReport
{
    /** Phase tree root; label "run", inclusive = attach-to-finish
     * wall time. */
    PhaseStat root;

    double wallSeconds = 0.0;
    double userSeconds = 0.0; //!< this thread's user CPU time
    double sysSeconds = 0.0;  //!< this thread's system CPU time
    long maxRssKb = 0;        //!< process RSS high-water (kilobytes)

    /** Throughput basis, filled by the caller (the profiler cannot
     * know what was simulated); see setThroughput(). */
    std::uint64_t instructions = 0;
    std::uint64_t llcAccesses = 0;
    double instsPerSecond = 0.0;
    double accessesPerSecond = 0.0;

    /** Record what the run simulated and derive the rates. */
    void setThroughput(std::uint64_t insts, std::uint64_t accesses);
};

/** Phase anywhere in @p root's tree by label (preorder), or null. */
const PhaseStat* findPhase(const PhaseStat& root, std::string_view label);

class Profiler;

namespace detail {
/** The thread's attached profiler (managed by Attach). */
extern thread_local Profiler* tlsProfiler;
} // namespace detail

class Profiler
{
  public:
    Profiler();
    ~Profiler();
    Profiler(const Profiler&) = delete;
    Profiler& operator=(const Profiler&) = delete;

    /** Profiler attached to the current thread, or null. */
    static Profiler* current() { return detail::tlsProfiler; }

    /**
     * Seal the profile. Must be called on the attaching thread with
     * every scope closed (panics otherwise — an open scope would make
     * a child's time exceed its never-closed parent's).
     */
    ProfileReport finish();

    // ---- hot path (called by Scope; not user API) ----

    struct Node
    {
        const char* label = nullptr;
        std::uint64_t ticks = 0; //!< inclusive over all entries
        std::uint64_t count = 0; //!< entries
        /** Children indexed by SiteId (sparse; sites are few). */
        std::vector<std::unique_ptr<Node>> children;
    };

    /** Descend into @p site's node; returns the previous position. */
    Node*
    enter(SiteId site, const char* label)
    {
        Node* parent = current_;
        if (site >= parent->children.size())
            parent->children.resize(site + 1);
        auto& slot = parent->children[site];
        if (!slot) {
            slot = std::make_unique<Node>();
            slot->label = label;
        }
        current_ = slot.get();
        return parent;
    }

    void
    leave(Node* parent, std::uint64_t start_tick)
    {
        Node* n = current_;
        n->ticks += tick() - start_tick;
        ++n->count;
        current_ = parent;
    }

  private:
    friend class Attach;

    Node root_;
    Node* current_;
    std::uint64_t startTick_;
    Stopwatch wall_;
    double startUser_ = 0.0;
    double startSys_ = 0.0;
};

/**
 * RAII attachment of a Profiler to the current thread. Saves and
 * restores any previously attached profiler, so attachments nest
 * (inner run profiled separately from an outer harness profile).
 */
class Attach
{
  public:
    explicit Attach(Profiler& p);
    ~Attach();
    Attach(const Attach&) = delete;
    Attach& operator=(const Attach&) = delete;

  private:
    Profiler* prev_;
};

/** RAII phase scope; use through MRP_PROF_SCOPE. */
class Scope
{
  public:
    Scope(SiteId site, const char* label)
    {
        prof_ = Profiler::current();
        if (!prof_)
            return;
        parent_ = prof_->enter(site, label);
        start_ = tick();
    }

    ~Scope()
    {
        if (prof_)
            prof_->leave(parent_, start_);
    }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Profiler* prof_;
    Profiler::Node* parent_ = nullptr;
    std::uint64_t start_ = 0;
};

} // namespace mrp::prof

#define MRP_PROF_CONCAT2(a, b) a##b
#define MRP_PROF_CONCAT(a, b) MRP_PROF_CONCAT2(a, b)

/**
 * Time the rest of the enclosing block as phase @p label (a string
 * literal, dot-hierarchical by convention: "min.replay"). Nesting
 * scopes nests phases, and every entry is timed exactly. No-op unless
 * a Profiler is attached to the current thread. For coarse phases
 * only: per-access layer attribution belongs to perfbench's
 * decorators (perfbench/README.md), which cost nothing when absent.
 */
#define MRP_PROF_SCOPE(label)                                          \
    static const ::mrp::prof::SiteId MRP_PROF_CONCAT(                  \
        mrp_prof_site_, __LINE__) = ::mrp::prof::registerSite(label);  \
    const ::mrp::prof::Scope MRP_PROF_CONCAT(mrp_prof_scope_,          \
                                             __LINE__)(                \
        MRP_PROF_CONCAT(mrp_prof_site_, __LINE__), label)

#endif // MRP_PROF_PROFILER_HPP

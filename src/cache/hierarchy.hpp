/**
 * @file
 * The three-level memory hierarchy of the paper's performance model:
 * per-core 32KB/8-way L1D and 256KB/8-way unified L2, a shared
 * policy-managed LLC, a per-core stream prefetcher, and a flat-latency
 * DRAM (200 cycles beyond the LLC).
 *
 * The hierarchy is *functional*: an access updates cache state and
 * returns the latency the timing model should charge. Keeping the
 * functional access order independent of timing makes the LLC
 * reference stream policy-invariant, which is what allows Belady's MIN
 * to be computed with a recording pre-pass (see policy/min.hpp).
 */

#ifndef MRP_CACHE_HIERARCHY_HPP
#define MRP_CACHE_HIERARCHY_HPP

#include <memory>
#include <vector>

#include "cache/basic_cache.hpp"
#include "cache/policy_cache.hpp"
#include "prefetch/stream_prefetcher.hpp"

namespace mrp::telemetry {
class Session;
}

namespace mrp::cache {

/** Sizing and latency parameters (defaults follow the paper §4.1). */
struct HierarchyConfig
{
    /** Most cores a Hierarchy accepts. Each core gets its own L1, L2
     * and prefetcher, so decoders of untrusted configs bound by it. */
    static constexpr unsigned kMaxCores = 64;

    unsigned cores = 1;
    Addr l1Bytes = 32 * 1024;
    std::uint32_t l1Ways = 8;
    Addr l2Bytes = 256 * 1024;
    std::uint32_t l2Ways = 8;
    Addr llcBytes = 2 * 1024 * 1024;
    std::uint32_t llcWays = 16;
    Cycle l1Latency = 4;
    Cycle l2Latency = 16;
    Cycle llcLatency = 40;
    Cycle memLatency = 240; //!< 200-cycle DRAM beyond the LLC path
    bool prefetchEnabled = true;
    prefetch::StreamPrefetcherConfig prefetcher{};
};

/** The paper's 4-core configuration: shared 8MB LLC. */
HierarchyConfig multiCoreConfig();

/** Composite of private L1/L2 caches, prefetchers, and the shared LLC. */
class Hierarchy
{
  public:
    Hierarchy(const HierarchyConfig& cfg,
              std::unique_ptr<LlcPolicy> llc_policy);

    /**
     * Perform one demand access and return its latency in cycles.
     * @param ctx per-core predictor context (PC history); the caller
     *        updates it *after* this returns.
     */
    Cycle access(CoreId core, Pc pc, Addr addr, bool is_write,
                 const CoreContext* ctx);

    PolicyCache& llc() { return llc_; }
    const PolicyCache& llc() const { return llc_; }
    BasicCache& l1(CoreId core) { return l1_[core]; }
    const BasicCache& l1(CoreId core) const { return l1_[core]; }
    BasicCache& l2(CoreId core) { return l2_[core]; }
    const BasicCache& l2(CoreId core) const { return l2_[core]; }

    const HierarchyConfig& config() const { return cfg_; }

    prefetch::StreamPrefetcher& prefetcher(CoreId core)
    {
        return prefetchers_[core];
    }

    std::uint64_t dramReads() const { return dramReads_; }
    std::uint64_t dramWrites() const { return dramWrites_; }

    /**
     * The one telemetry attach call, made at the start of the
     * measurement window. It registers the "llc.*" counters and the
     * "mem.dram_*" gauges as probes over the hierarchy's own counters,
     * reporting deltas from this call (so a driver that never resets
     * the statistics still gets window-only values); forwards to the
     * LLC policy's attachTelemetry; adds the prefetcher
     * accuracy/coverage probes; and subscribes an LLC observer that
     * advances @p session's epoch clock and reuse tracker once per
     * access. The probes reference this hierarchy and the observer
     * references @p session: the hierarchy must outlive every snapshot
     * taken from the session, and the session every later access.
     */
    void attachTelemetry(telemetry::Session& session);

    /** Zero every statistic without disturbing cache contents. */
    void resetStats();

  private:
    void writebackToL2(CoreId core, Addr block_address);
    void writebackToLlc(CoreId core, Addr block_address);
    void issuePrefetches(CoreId core, const CoreContext* ctx);

    HierarchyConfig cfg_;
    std::vector<BasicCache> l1_;
    std::vector<BasicCache> l2_;
    std::vector<prefetch::StreamPrefetcher> prefetchers_;
    PolicyCache llc_;
    std::unique_ptr<LlcObserver> sessionObserver_; //!< set by attach
    std::vector<Addr> pfBuf_;
    std::uint64_t dramReads_ = 0;
    std::uint64_t dramWrites_ = 0;
    bool prefetchTracking_ = false;
};

} // namespace mrp::cache

#endif // MRP_CACHE_HIERARCHY_HPP

#include "cache/hierarchy.hpp"

#include <utility>

#include "telemetry/session.hpp"
#include "util/logging.hpp"

namespace mrp::cache {

HierarchyConfig
multiCoreConfig()
{
    HierarchyConfig cfg;
    cfg.cores = 4;
    cfg.llcBytes = 8 * 1024 * 1024;
    return cfg;
}

Hierarchy::Hierarchy(const HierarchyConfig& cfg,
                     std::unique_ptr<LlcPolicy> llc_policy)
    : cfg_(cfg),
      llc_(cfg.llcBytes, cfg.llcWays, std::move(llc_policy), cfg.cores)
{
    fatalIf(cfg.cores == 0 || cfg.cores > HierarchyConfig::kMaxCores,
            "hierarchy needs 1.." +
                std::to_string(HierarchyConfig::kMaxCores) +
                " cores, got " + std::to_string(cfg.cores));
    for (unsigned c = 0; c < cfg.cores; ++c) {
        l1_.emplace_back("L1D", cfg.l1Bytes, cfg.l1Ways);
        l2_.emplace_back("L2", cfg.l2Bytes, cfg.l2Ways);
        prefetchers_.emplace_back(cfg.prefetcher);
    }
}

Cycle
Hierarchy::accessMiss(CoreId core, Pc pc, Addr addr, bool is_write,
                      const CoreContext* ctx)
{
    // Train the stream prefetcher before servicing the miss.
    pfBuf_.clear();
    if (cfg_.prefetchEnabled)
        prefetchers_[core].onL1Miss(addr, pfBuf_);

    Cycle latency;
    if (l2_[core].access(addr, false)) {
        latency = cfg_.l2Latency;
    } else {
        AccessInfo info;
        info.pc = pc;
        info.addr = addr;
        info.core = core;
        info.type = is_write ? AccessType::Store : AccessType::Load;
        info.ctx = ctx;
        const LlcResult r = llc_.access(info);
        if (r.hit) {
            latency = cfg_.llcLatency;
        } else {
            latency = cfg_.memLatency;
            ++dramReads_;
        }
        if (r.victim.valid && r.victim.dirty)
            ++dramWrites_;
        const VictimBlock v2 = l2_[core].fill(addr, false);
        if (v2.valid && v2.dirty)
            writebackToLlc(core, v2.blockAddress);
    }

    const VictimBlock v1 = l1_[core].fill(addr, is_write);
    if (v1.valid && v1.dirty)
        writebackToL2(core, v1.blockAddress);

    if (!pfBuf_.empty())
        issuePrefetches(core, ctx);
    return latency;
}

void
Hierarchy::writebackToL2(CoreId core, Addr block_address)
{
    ++l2_[core].stats().writebackAccesses;
    if (l2_[core].markDirty(block_address)) {
        ++l2_[core].stats().writebackHits;
        return;
    }
    // Write-allocate in L2 (non-inclusive hierarchy: the L1 victim may
    // no longer be present below).
    ++l2_[core].stats().writebackMisses;
    const VictimBlock v = l2_[core].fill(block_address, true);
    if (v.valid && v.dirty)
        writebackToLlc(core, v.blockAddress);
}

void
Hierarchy::writebackToLlc(CoreId core, Addr block_address)
{
    AccessInfo info;
    info.pc = kWritebackPc;
    info.addr = block_address;
    info.core = core;
    info.type = AccessType::Writeback;
    info.ctx = nullptr;
    const LlcResult r = llc_.access(info);
    if (r.bypassed)
        ++dramWrites_; // bypassed dirty data goes straight to DRAM
    if (r.victim.valid && r.victim.dirty)
        ++dramWrites_;
}

void
Hierarchy::issuePrefetches(CoreId core, const CoreContext* ctx)
{
    // Iterate by index: the LLC writebacks triggered below never touch
    // pfBuf_, but keep the loop robust anyway.
    for (std::size_t i = 0; i < pfBuf_.size(); ++i) {
        const Addr addr = pfBuf_[i];
        if (l1_[core].contains(addr))
            continue;
        if (!l2_[core].touch(addr)) {
            AccessInfo info;
            info.pc = kPrefetchPc;
            info.addr = addr;
            info.core = core;
            info.type = AccessType::Prefetch;
            info.ctx = ctx;
            const LlcResult r = llc_.access(info);
            if (!r.hit)
                ++dramReads_;
            if (r.victim.valid && r.victim.dirty)
                ++dramWrites_;
            ++l2_[core].stats().prefetchAccesses;
            const VictimBlock v2 = l2_[core].fill(addr, false);
            if (v2.valid && v2.dirty)
                writebackToLlc(core, v2.blockAddress);
        }
        ++l1_[core].stats().prefetchAccesses;
        const VictimBlock v1 = l1_[core].fill(addr, false);
        if (v1.valid && v1.dirty)
            writebackToL2(core, v1.blockAddress);
    }
}

namespace {

/** Advances a telemetry session once per LLC access. */
class SessionObserver : public LlcObserver
{
  public:
    explicit SessionObserver(telemetry::Session& session)
        : session_(session)
    {
    }

    void
    onAccess(const AccessInfo& info, bool hit, std::uint32_t set,
             int way) override
    {
        (void)hit;
        (void)set;
        (void)way;
        session_.reuse().observe(blockAddr(info.addr));
        session_.tick();
    }

  private:
    telemetry::Session& session_;
};

} // namespace

void
Hierarchy::attachTelemetry(telemetry::Session& session)
{
    using S = stats::LevelStats;
    static constexpr std::pair<const char*, std::uint64_t S::*>
        kLlcCounters[] = {
            {"llc.demand_accesses", &S::demandAccesses},
            {"llc.demand_hits", &S::demandHits},
            {"llc.demand_misses", &S::demandMisses},
            {"llc.prefetch_accesses", &S::prefetchAccesses},
            {"llc.writeback_accesses", &S::writebackAccesses},
            {"llc.bypasses", &S::bypasses},
            {"llc.fills", &S::fills},
            {"llc.evictions", &S::evictions},
            {"llc.dirty_evictions", &S::dirtyEvictions},
        };
    telemetry::MetricsRegistry& registry = session.registry();
    for (const auto& [name, field] : kLlcCounters)
        registry.counterFn(name, [this, field = field,
                                  from = llc_.stats().*field] {
            return llc_.stats().*field - from;
        });
    registry.gaugeFn("mem.dram_reads", [this, from = dramReads_] {
        return static_cast<double>(dramReads_ - from);
    });
    registry.gaugeFn("mem.dram_writes", [this, from = dramWrites_] {
        return static_cast<double>(dramWrites_ - from);
    });
    llc_.policy().attachTelemetry(registry);
    sessionObserver_ = std::make_unique<SessionObserver>(session);
    llc_.addObserver(*sessionObserver_);
    if (!cfg_.prefetchEnabled)
        return;
    prefetchTracking_ = true;
    for (auto& p : prefetchers_)
        p.enableTracking();
    const auto sum =
        [this](std::uint64_t (prefetch::StreamPrefetcher::*get)()
                   const) {
            std::uint64_t n = 0;
            for (const auto& p : prefetchers_)
                n += (p.*get)();
            return n;
        };
    using SP = prefetch::StreamPrefetcher;
    registry.gaugeFn("prefetch.issued", [sum] {
        return static_cast<double>(sum(&SP::trackedIssued));
    });
    registry.gaugeFn("prefetch.useful", [sum] {
        return static_cast<double>(sum(&SP::useful));
    });
    registry.gaugeFn("prefetch.late", [sum] {
        return static_cast<double>(sum(&SP::late));
    });
    registry.gaugeFn("prefetch.demand_l1_misses", [sum] {
        return static_cast<double>(sum(&SP::demandMisses));
    });
    registry.gaugeFn("prefetch.accuracy", [sum] {
        const std::uint64_t issued = sum(&SP::trackedIssued);
        return issued == 0 ? 0.0
                           : static_cast<double>(sum(&SP::useful)) /
                                 static_cast<double>(issued);
    });
    registry.gaugeFn("prefetch.coverage", [sum] {
        const std::uint64_t base =
            sum(&SP::useful) + sum(&SP::demandMisses);
        return base == 0 ? 0.0
                         : static_cast<double>(sum(&SP::useful)) /
                               static_cast<double>(base);
    });
}

void
Hierarchy::resetStats()
{
    for (auto& c : l1_)
        c.stats().reset();
    for (auto& c : l2_)
        c.stats().reset();
    llc_.resetStats();
    dramReads_ = 0;
    dramWrites_ = 0;
}

} // namespace mrp::cache

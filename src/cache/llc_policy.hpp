/**
 * @file
 * The pluggable LLC management-policy interface and the passive LLC
 * observer interface.
 *
 * A policy controls victim selection, may refuse allocation entirely
 * (bypass), and is notified of hits, misses, fills, and evictions so
 * it can maintain recency state and train predictors. Observers see
 * the same events but cannot influence decisions; they implement the
 * measurement-only modes (ROC probes, MIN's pre-pass recorder, the
 * telemetry epoch clock), any number of them on one cache.
 */

#ifndef MRP_CACHE_LLC_POLICY_HPP
#define MRP_CACHE_LLC_POLICY_HPP

#include <cstdint>
#include <string>

#include "cache/access.hpp"
#include "cache/geometry.hpp"
#include "util/types.hpp"

namespace mrp::telemetry {
class MetricsRegistry;
}

namespace mrp::cache {

/** No caller; kept only so perfbench/traced.cpp compiles. */
using WayMask = std::uint64_t;

/** Interface implemented by every LLC management policy. */
class LlcPolicy
{
  public:
    virtual ~LlcPolicy() = default;

    /** Human-readable policy name for reports. */
    virtual std::string name() const = 0;

    /**
     * The lookup for @p info hit at (@p set, @p way): update recency /
     * promotion state, train predictors.
     */
    virtual void onHit(const AccessInfo& info, std::uint32_t set,
                       std::uint32_t way) = 0;

    /**
     * The lookup for @p info missed in @p set. Called before any fill
     * decision, for every miss (even ones that end up bypassed).
     */
    virtual void
    onMiss(const AccessInfo& info, std::uint32_t set)
    {
        (void)info;
        (void)set;
    }

    /**
     * Decide whether to skip allocating the missing block. Called only
     * after onMiss, and never for fills the cache itself refuses to
     * bypass (see PolicyCache).
     */
    virtual bool
    shouldBypass(const AccessInfo& info, std::uint32_t set)
    {
        (void)info;
        (void)set;
        return false;
    }

    /**
     * Choose a victim way in a full @p set. Invalid ways are consumed
     * by the cache before this is ever called.
     */
    virtual std::uint32_t victimWay(const AccessInfo& info,
                                    std::uint32_t set) = 0;

    /** No caller; kept only so perfbench/traced.cpp compiles. */
    virtual WayMask
    fillWays(const AccessInfo& info, std::uint32_t set)
    {
        (void)info;
        (void)set;
        return 0;
    }

    /** No caller; kept only so perfbench/traced.cpp compiles. */
    virtual std::uint32_t
    victimWayIn(const AccessInfo& info, std::uint32_t set, WayMask mask)
    {
        (void)mask;
        return victimWay(info, set);
    }

    /** No caller; kept only so perfbench/traced.cpp compiles. */
    virtual std::uint32_t
    tenantOf(const AccessInfo& info) const
    {
        (void)info;
        return 0;
    }

    /** The missing block was installed at (@p set, @p way). */
    virtual void onFill(const AccessInfo& info, std::uint32_t set,
                        std::uint32_t way) = 0;

    /** The block at (@p set, @p way) is being evicted. */
    virtual void
    onEvict(std::uint32_t set, std::uint32_t way)
    {
        (void)set;
        (void)way;
    }

    /**
     * Opt-in introspection: register this policy's metrics (decision
     * counters, predictor state probes) with @p registry. Called at
     * most once, after warmup, and only when telemetry is enabled for
     * the run; the default is a no-op so policies without internal
     * state need not care.
     */
    virtual void
    attachTelemetry(telemetry::MetricsRegistry& registry)
    {
        (void)registry;
    }
};

/** Passive observer of LLC events; cannot influence decisions. */
class LlcObserver
{
  public:
    virtual ~LlcObserver() = default;

    /** Every access, with its hit/miss outcome; way is -1 on miss. */
    virtual void
    onAccess(const AccessInfo& info, bool hit, std::uint32_t set, int way)
    {
        (void)info;
        (void)hit;
        (void)set;
        (void)way;
    }

    /** A block was installed at (set, way). */
    virtual void
    onFill(const AccessInfo& info, std::uint32_t set, std::uint32_t way)
    {
        (void)info;
        (void)set;
        (void)way;
    }

    /** The block at (set, way) was evicted. */
    virtual void
    onEvict(std::uint32_t set, std::uint32_t way, Addr block_address)
    {
        (void)set;
        (void)way;
        (void)block_address;
    }

    /** The fill for @p info was bypassed. */
    virtual void
    onBypass(const AccessInfo& info, std::uint32_t set)
    {
        (void)info;
        (void)set;
    }
};

} // namespace mrp::cache

#endif // MRP_CACHE_LLC_POLICY_HPP

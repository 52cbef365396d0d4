/**
 * @file
 * One run's telemetry: the registry, the epoch clock, and the
 * reuse-distance tracker.
 *
 * A Session is created by a simulation driver when the run's
 * TelemetryConfig enables telemetry, attached with one
 * Hierarchy::attachTelemetry call after warmup (so every metric covers
 * exactly the measurement window and reconciles with LevelStats),
 * ticked once per LLC access, and finished into an immutable
 * RunTelemetry that travels with the run's result.
 */

#ifndef MRP_TELEMETRY_SESSION_HPP
#define MRP_TELEMETRY_SESSION_HPP

#include <memory>

#include "stats/reuse_histogram.hpp"
#include "telemetry/config.hpp"
#include "telemetry/metrics.hpp"

namespace mrp::telemetry {

/** Registry state at one epoch boundary (cumulative since attach). */
struct EpochSample
{
    std::uint64_t index = 0;    //!< 0-based epoch number
    std::uint64_t accesses = 0; //!< LLC accesses covered so far
    Snapshot snapshot;
};

/** Everything a finished run exports. */
struct RunTelemetry
{
    std::uint64_t epochAccesses = 0; //!< configured interval
    std::uint64_t accesses = 0;      //!< LLC accesses observed
    Snapshot finalSnapshot;
    /**
     * Cumulative snapshots at each epoch boundary, plus one trailing
     * partial epoch when the run does not end exactly on a boundary —
     * so every run with at least one access has at least one epoch.
     */
    std::vector<EpochSample> epochs;
};

/**
 * LLC reuse-distance instrument: distance = number of other LLC
 * accesses between two consecutive accesses to the same block. Every
 * observed access is either a reuse (one histogram sample) or the
 * first touch of its block (cold counter), so
 * `llc.reuse_distance.total + llc.reuse.cold_accesses` always equals
 * the accesses observed — the reconciliation the integration test
 * checks against LevelStats. The distance bookkeeping itself is the
 * shared stats::ReuseDistanceCounter (also the substrate of the MRC
 * engine's samplers); this class only routes its output into the
 * registry's Histogram/Counter.
 */
class ReuseDistanceTracker
{
  public:
    explicit ReuseDistanceTracker(MetricsRegistry& registry);

    /** Observe one LLC access to block @p blockKey. */
    void observe(std::uint64_t blockKey);

  private:
    Histogram* distance_;
    Counter* cold_;
    stats::ReuseDistanceCounter counter_;
};

/** Per-run telemetry owner; see file comment for the lifecycle. */
class Session
{
  public:
    explicit Session(const TelemetryConfig& cfg);

    MetricsRegistry& registry() { return registry_; }
    ReuseDistanceTracker& reuse() { return reuse_; }

    /** One LLC access: advances the epoch clock, snapshotting the
     * registry at every epoch boundary. */
    void
    tick()
    {
        ++accesses_;
        if (accesses_ % cfg_.epochAccesses == 0)
            closeEpoch();
    }

    /** Seal the session into its exportable form. */
    std::shared_ptr<const RunTelemetry> finish();

  private:
    void closeEpoch();

    TelemetryConfig cfg_;
    MetricsRegistry registry_;
    ReuseDistanceTracker reuse_;
    std::uint64_t accesses_ = 0;
    std::vector<EpochSample> epochs_;
};

} // namespace mrp::telemetry

#endif // MRP_TELEMETRY_SESSION_HPP

/**
 * @file
 * Metrics registry: named counters, gauges, and fixed-bucket
 * histograms for per-run introspection.
 *
 * Design constraints (in priority order):
 *  - Near-zero cost when unused: instrumented components hold plain
 *    pointers that are null until a registry is attached, so the
 *    disabled hot path is one branch on a pointer.
 *  - Atomic-free hot path: a registry belongs to exactly one
 *    simulation run, and every run executes on one thread (the
 *    parallel runner parallelizes *across* runs), so increments are
 *    plain integer adds.
 *  - Deterministic export: metrics are stored name-sorted, so a
 *    snapshot serializes identically at any worker count.
 *
 * Registration (name lookup, allocation) is expected once per run at
 * attach time; only add()/set()/record() are hot.
 */

#ifndef MRP_TELEMETRY_METRICS_HPP
#define MRP_TELEMETRY_METRICS_HPP

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace mrp::telemetry {

/** Monotonically increasing event count. */
class Counter
{
  public:
    void add(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** Point-in-time numeric value. */
class Gauge
{
  public:
    void set(double v) { value_ = v; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * Fixed-bucket histogram over signed integer samples.
 *
 * Bucket i counts samples v with bounds[i-1] < v <= bounds[i] (bucket
 * 0 has no lower limit, so a value below the first bound lands
 * there); samples above the last bound land in the overflow bucket.
 * Bounds are fixed at registration: no rebucketing ever happens on
 * the hot path.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<std::int64_t> bounds);

    void
    record(std::int64_t v)
    {
        const auto it =
            std::lower_bound(bounds_.begin(), bounds_.end(), v);
        if (it == bounds_.end())
            ++overflow_;
        else
            ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
        ++total_;
        sum_ += v;
    }

    const std::vector<std::int64_t>& bounds() const { return bounds_; }
    std::uint64_t bucketCount(std::size_t i) const { return counts_[i]; }
    std::uint64_t overflow() const { return overflow_; }
    /** Total samples recorded (overflow included). */
    std::uint64_t total() const { return total_; }
    std::int64_t sum() const { return sum_; }

  private:
    std::vector<std::int64_t> bounds_; //!< strictly ascending
    std::vector<std::uint64_t> counts_;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
    std::int64_t sum_ = 0;
};

/** `{0, 1, 2, 4, ..., 2^maxExp}`: the ladder used for distances. */
std::vector<std::int64_t> powerOfTwoBounds(unsigned maxExp);

/** What a metric was at snapshot time. */
struct HistogramSnapshot
{
    std::vector<std::int64_t> bounds;
    std::vector<std::uint64_t> counts;
    std::uint64_t overflow = 0;
    std::uint64_t total = 0;
    std::int64_t sum = 0;
};

struct MetricSnapshot
{
    enum class Kind : std::uint8_t { Counter, Gauge, Histogram };

    std::string name;
    Kind kind = Kind::Counter;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    HistogramSnapshot histogram;
};

/** A registry's state at one instant; entries are name-sorted. */
struct Snapshot
{
    std::vector<MetricSnapshot> metrics;

    /** Entry by exact name, or null. */
    const MetricSnapshot* find(const std::string& name) const;
};

/**
 * Owner of one run's metrics. counter()/gauge()/histogram() return a
 * reference that stays valid for the registry's lifetime; callers
 * cache it and never touch the registry again on the hot path.
 * Registering the same name twice returns the existing metric (the
 * kinds must agree); gaugeFn() and counterFn() instead register a
 * probe evaluated lazily at every snapshot — the way to expose state
 * that lives in the instrumented component (weight magnitudes,
 * accuracy ratios, the cache's own event counts).
 */
class MetricsRegistry
{
  public:
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name,
                         std::vector<std::int64_t> bounds);
    void gaugeFn(const std::string& name, std::function<double()> fn);
    void counterFn(const std::string& name,
                   std::function<std::uint64_t()> fn);

    Snapshot snapshot() const;

  private:
    struct Entry
    {
        MetricSnapshot::Kind kind = MetricSnapshot::Kind::Counter;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
        std::function<double()> fn; //!< gauge probe (may be empty)
        std::function<std::uint64_t()> counterFn; //!< counter probe

        /** Whether any kind of metric is registered under this name. */
        bool
        taken() const
        {
            return counter || gauge || histogram || fn || counterFn;
        }
    };

    std::map<std::string, Entry> entries_; //!< name-sorted
};

} // namespace mrp::telemetry

#endif // MRP_TELEMETRY_METRICS_HPP

#include "telemetry/metrics.hpp"

#include "util/logging.hpp"

namespace mrp::telemetry {

Histogram::Histogram(std::vector<std::int64_t> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size(), 0)
{
    fatalIf(bounds_.empty(), ErrorCode::Config,
            "histogram needs at least one bucket bound");
    for (std::size_t i = 1; i < bounds_.size(); ++i)
        fatalIf(bounds_[i] <= bounds_[i - 1], ErrorCode::Config,
                "histogram bounds must be strictly ascending");
}

std::vector<std::int64_t>
powerOfTwoBounds(unsigned maxExp)
{
    fatalIf(maxExp >= 63, ErrorCode::Config,
            "power-of-two bound exponent out of range");
    std::vector<std::int64_t> bounds;
    bounds.reserve(maxExp + 2);
    bounds.push_back(0);
    for (unsigned e = 0; e <= maxExp; ++e)
        bounds.push_back(std::int64_t{1} << e);
    return bounds;
}

const MetricSnapshot*
Snapshot::find(const std::string& name) const
{
    for (const auto& m : metrics)
        if (m.name == name)
            return &m;
    return nullptr;
}

Counter&
MetricsRegistry::counter(const std::string& name)
{
    Entry& e = entries_[name];
    if (!e.counter) {
        fatalIf(e.taken(), ErrorCode::Config,
                "metric registered with two kinds: " + name);
        e.kind = MetricSnapshot::Kind::Counter;
        e.counter = std::make_unique<Counter>();
    }
    return *e.counter;
}

Gauge&
MetricsRegistry::gauge(const std::string& name)
{
    Entry& e = entries_[name];
    if (!e.gauge) {
        fatalIf(e.taken(), ErrorCode::Config,
                "metric registered with two kinds: " + name);
        e.kind = MetricSnapshot::Kind::Gauge;
        e.gauge = std::make_unique<Gauge>();
    }
    return *e.gauge;
}

Histogram&
MetricsRegistry::histogram(const std::string& name,
                           std::vector<std::int64_t> bounds)
{
    Entry& e = entries_[name];
    if (!e.histogram) {
        fatalIf(e.taken(), ErrorCode::Config,
                "metric registered with two kinds: " + name);
        e.kind = MetricSnapshot::Kind::Histogram;
        e.histogram = std::make_unique<Histogram>(std::move(bounds));
    }
    return *e.histogram;
}

void
MetricsRegistry::gaugeFn(const std::string& name,
                         std::function<double()> fn)
{
    fatalIf(!fn, ErrorCode::Config, "null gauge probe: " + name);
    Entry& e = entries_[name];
    fatalIf(e.taken(), ErrorCode::Config,
            "metric registered with two kinds: " + name);
    e.kind = MetricSnapshot::Kind::Gauge;
    e.fn = std::move(fn);
}

void
MetricsRegistry::counterFn(const std::string& name,
                           std::function<std::uint64_t()> fn)
{
    fatalIf(!fn, ErrorCode::Config, "null counter probe: " + name);
    Entry& e = entries_[name];
    fatalIf(e.taken(), ErrorCode::Config,
            "metric registered with two kinds: " + name);
    e.kind = MetricSnapshot::Kind::Counter;
    e.counterFn = std::move(fn);
}

Snapshot
MetricsRegistry::snapshot() const
{
    Snapshot snap;
    snap.metrics.reserve(entries_.size());
    for (const auto& [name, e] : entries_) {
        MetricSnapshot m;
        m.name = name;
        m.kind = e.kind;
        switch (e.kind) {
          case MetricSnapshot::Kind::Counter:
            m.counter = e.counterFn ? e.counterFn() : e.counter->value();
            break;
          case MetricSnapshot::Kind::Gauge:
            m.gauge = e.fn ? e.fn() : e.gauge->value();
            break;
          case MetricSnapshot::Kind::Histogram: {
            const Histogram& h = *e.histogram;
            m.histogram.bounds = h.bounds();
            m.histogram.counts.resize(h.bounds().size());
            for (std::size_t i = 0; i < h.bounds().size(); ++i)
                m.histogram.counts[i] = h.bucketCount(i);
            m.histogram.overflow = h.overflow();
            m.histogram.total = h.total();
            m.histogram.sum = h.sum();
            break;
          }
        }
        snap.metrics.push_back(std::move(m));
    }
    return snap;
}

} // namespace mrp::telemetry

/**
 * @file
 * The profiler's timestamp source.
 *
 * Every phase-scope entry reads the clock twice, so the read should be
 * a register read, not a syscall. On x86-64 we read the invariant TSC
 * directly (~10ns, vDSO-free); elsewhere we fall back to
 * steady_clock. Ticks are NOT seconds: the Profiler calibrates the
 * tick period over its own lifetime (wall-clock delta / tick delta),
 * so no upfront calibration spin is ever needed and frequency
 * differences between machines cancel out of every report.
 */

#ifndef MRP_PROF_CLOCK_HPP
#define MRP_PROF_CLOCK_HPP

#include <chrono>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace mrp::prof {

/** Raw monotonic timestamp in unspecified units ("ticks"). */
inline std::uint64_t
tick()
{
#if defined(__x86_64__) || defined(_M_X64)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/**
 * Wall-clock stopwatch for coarse (per-run, per-batch) intervals —
 * the one shared definition replacing the ad-hoc steady_clock
 * arithmetic that used to be duplicated across the runner and the
 * benches.
 */
class Stopwatch
{
  public:
    Stopwatch() : start_(std::chrono::steady_clock::now()) {}

    /** Seconds elapsed since construction (or the last reset). */
    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

    void reset() { start_ = std::chrono::steady_clock::now(); }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** count / seconds, guarded against empty intervals. */
inline double
ratePerSecond(std::uint64_t count, double seconds)
{
    return seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0;
}

} // namespace mrp::prof

#endif // MRP_PROF_CLOCK_HPP

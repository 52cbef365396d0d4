/**
 * @file
 * A fixed host-speed probe. The machine the benchmark runs on is shared:
 * other tenants slow simulator code by up to 1.7x for minutes at a time,
 * so raw host seconds drift far more between runs than any bound could
 * allow. The probe runs a fixed miniature of the simulator's hot loop
 * (LRU lookups in a 2048-set, 16-way tag array, the simulated 2MB LLC's
 * geometry) on every worker thread between batches. Its time tracks how
 * fast the host runs simulator code at that moment; timed host seconds
 * are rescaled by it to reference seconds, the time they would have taken
 * with the probe at kProbeRefSeconds.
 *
 * The probe is the benchmark's own code and does not call the
 * simulator, so a change to src/ moves the rescaled metrics exactly as
 * it moves the raw ones.
 */

#ifndef PERFBENCH_HOST_PROBE_HPP
#define PERFBENCH_HOST_PROBE_HPP

#include <cstdint>
#include <vector>

namespace perfbench {

/** The probe's time on a quiet host (a 4-vCPU 2.0 GHz Xeon VM, 4
 * threads): the unit of reference seconds. */
inline constexpr double kProbeRefSeconds = 0.12;

class HostProbe
{
  public:
    /** A probe that runs on @p jobs threads at once. */
    explicit HostProbe(unsigned jobs);

    /** Run the fixed probe work on every thread at once; returns the
     * mean seconds per thread. */
    double run();

    /** Reference seconds per host second at probe time @p probe_s. */
    static double scale(double probe_s) { return kProbeRefSeconds / probe_s; }

  private:
    struct Lane
    {
        std::vector<std::uint64_t> tags;
        std::vector<std::uint8_t> ages;
        std::uint64_t hits = 0;
    };
    std::vector<Lane> lanes_;
};

} // namespace perfbench

#endif // PERFBENCH_HOST_PROBE_HPP

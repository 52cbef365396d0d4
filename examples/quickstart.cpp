/**
 * @file
 * Quickstart: the smallest end-to-end use of the library.
 *
 * Builds a synthetic workload, runs it through the paper's memory
 * hierarchy under LRU and under MPPPB (multiperspective placement,
 * promotion, and bypass), and prints the headline numbers.
 */

#include <cstdio>

#include "sim/single_core.hpp"
#include "trace/source.hpp"
#include "trace/workloads.hpp"

int
main()
{
    using namespace mrp;

    // 1. Pick a workload. The suite has 33 benchmarks standing in for
    //    the paper's SPEC/CloudSuite simpoints; "scan.a" is a hot loop
    //    polluted by scans — the classic case for reuse prediction.
    const trace::Trace workload = trace::makeSuiteTrace(9, 1000000);
    std::printf("workload: %s (%llu instructions, %llu memory ops)\n",
                workload.name().c_str(),
                static_cast<unsigned long long>(workload.instructions()),
                static_cast<unsigned long long>(workload.memOps()));

    // 2. Run it under the LRU baseline. The default SingleCoreConfig
    //    is the paper's single-thread machine: 4-wide OoO core,
    //    32KB L1D, 256KB L2, 2MB LLC, stream prefetcher.
    trace::MaterializedTraceSource source(workload);
    const auto lru =
        sim::runSingleCore(source, sim::PolicyRegistry::make("LRU"), {});
    std::printf("LRU   : IPC %.3f, LLC demand MPKI %.2f\n", lru.ipc,
                lru.mpki);

    // 3. Run it under MPPPB: the multiperspective reuse predictor
    //    driving bypass, placement, and promotion over static MDPP.
    const auto mpppb = sim::runSingleCore(
        source, sim::PolicyRegistry::make("MPPPB"), {});
    std::printf("MPPPB : IPC %.3f, LLC demand MPKI %.2f, %llu fills "
                "bypassed\n",
                mpppb.ipc, mpppb.mpki,
                static_cast<unsigned long long>(mpppb.llcBypasses));

    // 4. And under Belady's MIN with optimal bypass, the upper bound.
    const auto min = sim::runSingleCoreMin(source, {});
    std::printf("MIN   : IPC %.3f, LLC demand MPKI %.2f\n", min.ipc,
                min.mpki);

    std::printf("\nspeedup over LRU: MPPPB %.2fx, MIN %.2fx\n",
                mpppb.ipc / lru.ipc, min.ipc / lru.ipc);
    return 0;
}

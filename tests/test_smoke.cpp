/**
 * @file
 * End-to-end smoke test: build a trace, run it under MPPPB, and check
 * the plumbing produces sane numbers.
 */

#include <gtest/gtest.h>

#include "sim/single_core.hpp"
#include "trace/source.hpp"
#include "trace/workloads.hpp"

namespace mrp {
namespace {

TEST(Smoke, MpppbRunsOnABenchmark)
{
    const auto trace = trace::makeSuiteTrace(0, 50000);
    trace::MaterializedTraceSource source(trace);
    const auto r = sim::runSingleCore(
        source, sim::PolicyRegistry::make("MPPPB"), {});
    EXPECT_GT(r.instructions, 0u);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_LE(r.ipc, 4.0);
}

} // namespace
} // namespace mrp

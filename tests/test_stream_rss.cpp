/**
 * @file
 * The streaming memory-bound acceptance test: generate a chunked trace
 * file larger than 256 MB, stream it end to end, and assert the
 * process's peak RSS stayed under a quarter of the trace size. Runs as
 * its own binary so no other test's allocations pollute ru_maxrss —
 * the counter is a high-water mark for the whole process and can
 * never go down.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <sys/resource.h>
#include <unistd.h>

#include "trace/spec.hpp"
#include "trace/stream_gen.hpp"
#include "trace/stream_reader.hpp"

namespace {

using namespace mrp;

std::uint64_t
peakRssBytes()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    // Linux reports ru_maxrss in kilobytes.
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

std::uint64_t
fileSizeBytes(const std::string& path)
{
    std::ifstream f(path, std::ios::binary | std::ios::ate);
    return f ? static_cast<std::uint64_t>(f.tellg()) : 0;
}

TEST(StreamRss, LargeTraceStreamsInBoundedMemory)
{
    const std::string path =
        "stream_rss_" + std::to_string(::getpid()) + ".mrpt";

    // ~34M records at 8 bytes each is ~274 MB of payload. With the
    // default 6 pads per access, that is ~2 records per 7 instructions.
    trace::ZipfParams p;
    p.instructions = 120'000'000;
    p.keys = 1u << 20;
    const auto spec = trace::TraceSpec::zipf(p);

    {
        trace::ChunkedTraceWriter writer(path, spec.displayName());
        auto src = spec.open();
        writer.appendAll(*src);
        writer.finish();
    }
    const std::uint64_t trace_bytes = fileSizeBytes(path);
    ASSERT_GE(trace_bytes, std::uint64_t{256} << 20)
        << "trace did not reach the 256 MB floor; grow instructions";

    // Stream the file in every delivery mode; none may pull the whole
    // payload into memory.
    std::uint64_t records = 0;
    {
        trace::FileTraceSource src(path, trace::FileMode::Buffered);
        for (auto c = src.nextChunk(); !c.empty(); c = src.nextChunk())
            records += c.size();
    }
    {
        trace::FileTraceSource src(path, trace::FileMode::Mmap);
        for (auto c = src.nextChunk(); !c.empty(); c = src.nextChunk())
            records += c.size();
    }
    {
        trace::DecodeAheadSource src(
            std::make_unique<trace::FileTraceSource>(
                path, trace::FileMode::Buffered),
            2);
        for (auto c = src.nextChunk(); !c.empty(); c = src.nextChunk())
            records += c.size();
    }
    std::remove(path.c_str());
    EXPECT_GT(records, std::uint64_t{3} * 34'000'000);

    const std::uint64_t peak = peakRssBytes();
    EXPECT_LT(peak, trace_bytes / 4)
        << "peak RSS " << (peak >> 20) << " MB vs trace "
        << (trace_bytes >> 20) << " MB — streaming is buffering";
}

} // namespace

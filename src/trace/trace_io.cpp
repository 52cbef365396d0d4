#include "trace/trace_io.hpp"

#include "trace/stream_reader.hpp"

namespace mrp::trace {

void
saveTrace(const std::string& path, const Trace& trace)
{
    ChunkedTraceWriter w(path, trace.name());
    MaterializedTraceSource src(trace);
    w.appendAll(src);
    w.finish();
}

} // namespace mrp::trace

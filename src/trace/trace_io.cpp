#include "trace/trace_io.hpp"

#include "trace/stream_reader.hpp"

namespace mrp::trace {

void
saveTrace(const std::string& path, const Trace& trace)
{
    ChunkedTraceWriter w(path, trace.name());
    w.append(trace);
    w.finish();
}

} // namespace mrp::trace

#include "trace/source.hpp"

namespace mrp::trace {

Trace
materialize(TraceSource& source)
{
    Trace::Encoder enc;
    for (auto chunk = source.nextChunk(); !chunk.empty();
         chunk = source.nextChunk())
        enc.append(chunk);
    return std::move(enc).finish(source.name(), source.instructions());
}

} // namespace mrp::trace

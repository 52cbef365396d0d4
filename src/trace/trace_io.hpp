/**
 * @file
 * Whole-trace save: writes an in-memory Trace as a v3 chunked file
 * (layout in trace/stream_reader.hpp), so workloads can be generated
 * once and archived.
 *
 * This is a convenience over ChunkedTraceWriter, the one v3 encoder.
 * There is no whole-trace loader: read a file back with
 * FileTraceSource, and materialize() it when every record must be
 * resident.
 *
 * Fault-injection sites: those of ChunkedTraceWriter ("stream.write",
 * "stream.write.corrupt", "stream.write.finish").
 */

#ifndef MRP_TRACE_TRACE_IO_HPP
#define MRP_TRACE_TRACE_IO_HPP

#include <string>

#include "trace/trace.hpp"

namespace mrp::trace {

/**
 * Write @p trace to @p path as a v3 file, atomically: the bytes land in
 * a same-directory temp file which is fsynced and renamed into place,
 * so a crashed writer can never leave a torn file at @p path. Throws
 * FatalError: Config for a name longer than the format allows, Io on
 * any write failure.
 */
void saveTrace(const std::string& path, const Trace& trace);

} // namespace mrp::trace

#endif // MRP_TRACE_TRACE_IO_HPP

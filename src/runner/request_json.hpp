/**
 * @file
 * The request codec: a RunRequest as one deterministic JSON document.
 *
 * Trace sources travel via TraceSpec::toJson (pure identity, no
 * bytes), the policy by name or as an MpppbConfig payload, and the
 * full driver configuration field by field. The encoding is canonical
 * (requestJson(requestFromJson(requestJson(r))) == requestJson(r))
 * and total for every request that has a data identity; anything
 * without one is refused with ErrorCode::Config, never silently
 * dropped:
 *  - Borrowed trace specs (point into process memory),
 *  - factory policies (closures have no identity; use
 *    PolicySpec::mpppb or a registry name),
 *  - telemetry-enabled configs (RunTelemetry is a process-local
 *    object graph).
 * OpenOptions are delivery knobs, not identity, and are deliberately
 * not serialized: results are byte-identical under every setting by
 * the TraceSource contract.
 *
 * requestJson is the identity key under which a paper-figure campaign
 * (bench/campaign.hpp) deduplicates its requests into one batch.
 *
 * requestFromJson has no production caller. It stays for two reasons:
 *  - the round-trip tests use it to prove that key lossless: two
 *    distinct requests never collapse into one run, because each
 *    document decodes back to a request that re-encodes identically;
 *  - it is a decoder of untrusted bytes, and the request-codec fuzz
 *    test (tests/test_request_json.cpp) holds it to the same bar as
 *    the trace and journal decoders: every malformed document is
 *    refused typed, never undefined behaviour.
 */

#ifndef MRP_RUNNER_REQUEST_JSON_HPP
#define MRP_RUNNER_REQUEST_JSON_HPP

#include <string>

#include "runner/run_request.hpp"
#include "util/json_reader.hpp"

namespace mrp::runner {

/**
 * Serialize @p request as one deterministic JSON document. Throws
 * FatalError(ErrorCode::Config) for requests without a data identity
 * (see file comment).
 */
std::string requestJson(const RunRequest& request);

/** Inverse of requestJson. @p what names the document for errors;
 * malformed documents throw FatalError(ErrorCode::CorruptInput). */
RunRequest requestFromJson(const json::Value& v, const std::string& what);

/** Convenience: parse text then requestFromJson. */
RunRequest requestFromJson(const std::string& text,
                           const std::string& what);

} // namespace mrp::runner

#endif // MRP_RUNNER_REQUEST_JSON_HPP

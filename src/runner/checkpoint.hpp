/**
 * @file
 * Crash-safe checkpoint journal for experiment batches.
 *
 * The journal is append-only JSONL: one line per completed RunResult,
 * written with a single write(2) and fsync'd, so a crash can lose at
 * most a partially-written final line. Each line is prefixed with the
 * CRC-32 of its JSON body:
 *
 *   <crc32-hex8> {"index": 3, "benchmark": "...", ...}\n
 *
 * The loader verifies every line's checksum; an invalid *final* line
 * is the expected signature of a torn write and is silently dropped,
 * while an invalid interior line means real corruption and raises
 * FatalError(ErrorCode::CorruptInput).
 *
 * Journal lines carry exactly the deterministic fields of RunResult
 * (doubles in shortest round-trip form), so a resumed batch's reports
 * are byte-identical to an uninterrupted run's.
 *
 * Fault-injection sites:
 *   "runner.journal.open"   IoError — fail opening the journal
 *   "runner.journal.write"  IoError — fail an append
 */

#ifndef MRP_RUNNER_CHECKPOINT_HPP
#define MRP_RUNNER_CHECKPOINT_HPP

#include <optional>
#include <string>
#include <vector>

#include "runner/run_request.hpp"
#include "util/journal.hpp"

namespace mrp::runner {

/**
 * Append-only, fsync'd journal writer. Thread-safe: workers append
 * results as they complete, in completion order (the index field, not
 * line order, keys each entry). A thin RunResult-typed veneer over
 * journal::AppendFile.
 */
class CheckpointJournal
{
  public:
    /** Opens (creating or appending to) @p path; throws
     * FatalError(ErrorCode::Io) on failure. */
    explicit CheckpointJournal(const std::string& path);
    CheckpointJournal(const CheckpointJournal&) = delete;
    CheckpointJournal& operator=(const CheckpointJournal&) = delete;

    /** Serialize, append, and fsync one completed result. */
    void append(const RunResult& result);

    const std::string& path() const { return file_.path(); }

  private:
    journal::AppendFile file_;
};

/**
 * Parse a journal into results. Tolerates a torn final line; throws
 * FatalError(ErrorCode::CorruptInput) for interior corruption and
 * FatalError(ErrorCode::Io) if @p path cannot be read. Entries appear
 * in file order; duplicate indices (possible when a journal is resumed
 * more than once) keep the last occurrence.
 */
std::vector<RunResult> loadJournal(const std::string& path);

/** One journal line (checksum prefix + JSON + newline); exposed for
 * tests that construct torn or corrupt journals. */
std::string journalLine(const RunResult& result);

/** Parse one line; std::nullopt if the checksum or JSON is invalid. */
std::optional<RunResult> parseJournalLine(const std::string& line);

/** JSON body of one result (what journalLine frames with a checksum).
 * Deterministic fields only, so a resumed batch restores exactly the
 * bytes an uninterrupted run would have reported. */
std::string resultJson(const RunResult& result);

/** Parse a resultJson body; std::nullopt on schema mismatch. */
std::optional<RunResult> resultFromJson(const std::string& json);

} // namespace mrp::runner

#endif // MRP_RUNNER_CHECKPOINT_HPP

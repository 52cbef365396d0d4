/**
 * @file
 * CRC-framed append-only JSONL journaling — the durability substrate
 * of the runner checkpoint journal.
 *
 * Every line is the CRC-32 of its JSON body in fixed hex followed by
 * the body:
 *
 *   <crc32-hex8> {"type": "...", ...}\n
 *
 * Appends are one write(2) plus an fsync, so a crash can tear at most
 * the final line. Scanning tolerates exactly that: an unparsable
 * *final* chunk is dropped as a torn tail, while an unparsable
 * interior line is real corruption and raises
 * FatalError(ErrorCode::CorruptInput). AppendFile heals a torn tail
 * by truncating to the valid prefix before appending.
 *
 * Fault-injection sites (per AppendFile, from its site prefix):
 *   "<prefix>.open"   IoError — fail opening the file
 *   "<prefix>.write"  IoError — fail an append
 */

#ifndef MRP_UTIL_JOURNAL_HPP
#define MRP_UTIL_JOURNAL_HPP

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace mrp::journal {

/** Frame one JSON body as a journal line (checksum + body + \n). */
std::string frameLine(const std::string& json);

/** Verify and strip the checksum frame; std::nullopt if the line is
 * malformed or fails its checksum. Trailing CR/LF are tolerated. */
std::optional<std::string> unframeLine(const std::string& line);

struct Scan
{
    /** JSON bodies of every valid line, in file order. */
    std::vector<std::string> lines;
    /** Byte length of the valid line prefix (everything before a
     * torn or missing tail). */
    std::uint64_t validBytes = 0;
};

/**
 * Walk @p content line by line. An unparsable *final* chunk is a torn
 * tail and is excluded from validBytes; an unparsable interior line
 * means corruption and throws FatalError(ErrorCode::CorruptInput)
 * naming @p path and the line number.
 */
Scan scanContent(const std::string& content, const std::string& path);

/** Read a whole file; throws FatalError(ErrorCode::Io) on failure. */
std::string readWholeFile(const std::string& path);

bool fileExists(const std::string& path);

/**
 * Append-only fsync'd journal writer. Thread-safe. Opening an
 * existing file first heals any torn tail (truncates to the valid
 * line prefix) so appends never concatenate onto a partial line.
 */
class AppendFile
{
  public:
    /** @param site_prefix names the fault-injection sites (see file
     * comment); e.g. "runner.journal". */
    AppendFile(const std::string& path,
               const std::string& site_prefix);
    ~AppendFile();
    AppendFile(const AppendFile&) = delete;
    AppendFile& operator=(const AppendFile&) = delete;

    /** Frame @p json and append it with one write(2) + fsync. */
    void append(const std::string& json);

    const std::string& path() const { return path_; }

  private:
    std::mutex mutex_;
    std::string path_;
    std::string sitePrefix_;
    int fd_ = -1;
};

} // namespace mrp::journal

#endif // MRP_UTIL_JOURNAL_HPP

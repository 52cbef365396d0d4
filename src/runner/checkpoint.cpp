#include "runner/checkpoint.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "runner/report.hpp"
#include "util/json_writer.hpp"
#include "util/logging.hpp"

namespace mrp::runner {

namespace {

/**
 * Minimal parser for the flat JSON objects this module itself emits:
 * string / integer / double values plus one array of doubles. Any
 * deviation makes the whole line invalid — the CRC prefix already
 * guarantees integrity, so this layer only guards schema drift.
 */
class JsonParser
{
  public:
    explicit JsonParser(const std::string& text)
        : p_(text.data()), end_(text.data() + text.size())
    {
    }

    bool
    parse(RunResult& out)
    {
        skipWs();
        if (!consume('{'))
            return false;
        skipWs();
        if (consume('}'))
            return atEnd();
        for (;;) {
            std::string key;
            if (!parseString(&key) || !skipWsAnd(':'))
                return false;
            skipWs();
            if (!dispatch(key, out))
                return false;
            skipWs();
            if (consume('}'))
                return atEnd();
            if (!consume(','))
                return false;
            skipWs();
        }
    }

  private:
    bool
    atEnd()
    {
        skipWs();
        return p_ == end_;
    }

    void
    skipWs()
    {
        while (p_ != end_ &&
               (*p_ == ' ' || *p_ == '\t' || *p_ == '\r' ||
                *p_ == '\n'))
            ++p_;
    }

    bool
    consume(char c)
    {
        if (p_ != end_ && *p_ == c) {
            ++p_;
            return true;
        }
        return false;
    }

    bool
    skipWsAnd(char c)
    {
        skipWs();
        return consume(c);
    }

    bool
    parseString(std::string* out)
    {
        if (!consume('"'))
            return false;
        out->clear();
        while (p_ != end_ && *p_ != '"') {
            char c = *p_++;
            if (c != '\\') {
                *out += c;
                continue;
            }
            if (p_ == end_)
                return false;
            const char esc = *p_++;
            switch (esc) {
            case '"': *out += '"'; break;
            case '\\': *out += '\\'; break;
            case '/': *out += '/'; break;
            case 'n': *out += '\n'; break;
            case 'r': *out += '\r'; break;
            case 't': *out += '\t'; break;
            case 'b': *out += '\b'; break;
            case 'f': *out += '\f'; break;
            case 'u': {
                if (end_ - p_ < 4)
                    return false;
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = *p_++;
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return false;
                }
                // The writer only emits \u00XX control escapes.
                if (code > 0x7F)
                    return false;
                *out += static_cast<char>(code);
                break;
            }
            default: return false;
            }
        }
        return consume('"');
    }

    bool
    parseNumberToken(std::string* out)
    {
        out->clear();
        while (p_ != end_ &&
               (std::strchr("+-.eE", *p_) != nullptr ||
                (*p_ >= '0' && *p_ <= '9')))
            *out += *p_++;
        return !out->empty();
    }

    bool
    parseU64(std::uint64_t* out)
    {
        std::string tok;
        if (!parseNumberToken(&tok))
            return false;
        errno = 0;
        char* rest = nullptr;
        *out = std::strtoull(tok.c_str(), &rest, 10);
        return errno == 0 && rest != nullptr && *rest == '\0';
    }

    bool
    parseDouble(double* out)
    {
        std::string tok;
        if (!parseNumberToken(&tok))
            return false;
        char* rest = nullptr;
        *out = std::strtod(tok.c_str(), &rest);
        return rest != nullptr && *rest == '\0';
    }

    bool
    parseDoubleArray(std::vector<double>* out)
    {
        if (!consume('['))
            return false;
        out->clear();
        skipWs();
        if (consume(']'))
            return true;
        for (;;) {
            double v = 0.0;
            skipWs();
            if (!parseDouble(&v))
                return false;
            out->push_back(v);
            skipWs();
            if (consume(']'))
                return true;
            if (!consume(','))
                return false;
        }
    }

    bool
    dispatch(const std::string& key, RunResult& out)
    {
        if (key == "index") {
            std::uint64_t v = 0;
            if (!parseU64(&v))
                return false;
            out.index = static_cast<std::size_t>(v);
            return true;
        }
        if (key == "benchmark")
            return parseString(&out.benchmark);
        if (key == "policy")
            return parseString(&out.policy);
        if (key == "label")
            return parseString(&out.label);
        if (key == "error")
            return parseString(&out.error);
        if (key == "errorCode") {
            std::string name;
            if (!parseString(&name))
                return false;
            out.errorCode = errorCodeFromName(name);
            return true;
        }
        if (key == "mode") {
            std::string mode;
            if (!parseString(&mode))
                return false;
            if (mode != "single" && mode != "multi")
                return false;
            out.multiCore = mode == "multi";
            return true;
        }
        if (key == "ipc")
            return parseDouble(&out.ipc);
        if (key == "mpki")
            return parseDouble(&out.mpki);
        if (key == "instructions")
            return parseU64(&out.instructions);
        if (key == "llcDemandAccesses")
            return parseU64(&out.llcDemandAccesses);
        if (key == "llcDemandMisses")
            return parseU64(&out.llcDemandMisses);
        if (key == "llcBypasses")
            return parseU64(&out.llcBypasses);
        if (key == "seed")
            return parseU64(&out.seed);
        if (key == "coreIpc")
            return parseDoubleArray(&out.coreIpc);
        // Unknown key: tolerate forward-compatible additions if the
        // value is one of the shapes we know how to skip.
        std::string str;
        double num = 0.0;
        std::vector<double> arr;
        if (p_ != end_ && *p_ == '"')
            return parseString(&str);
        if (p_ != end_ && *p_ == '[')
            return parseDoubleArray(&arr);
        return parseDouble(&num);
    }

    const char* p_;
    const char* end_;
};

} // namespace

std::string
resultJson(const RunResult& r)
{
    std::string out = "{\"index\": " + std::to_string(r.index);
    out += ", \"benchmark\": \"" + json::escape(r.benchmark) +
           "\"";
    out += ", \"policy\": \"" + json::escape(r.policy) + "\"";
    out += ", \"label\": \"" + json::escape(r.label) + "\"";
    out += std::string(", \"mode\": ") +
           (r.multiCore ? "\"multi\"" : "\"single\"");
    out += ", \"ipc\": " + json::formatDouble(r.ipc);
    out += ", \"mpki\": " + json::formatDouble(r.mpki);
    out += ", \"instructions\": " + std::to_string(r.instructions);
    out += ", \"llcDemandAccesses\": " +
           std::to_string(r.llcDemandAccesses);
    out += ", \"llcDemandMisses\": " +
           std::to_string(r.llcDemandMisses);
    out += ", \"llcBypasses\": " + std::to_string(r.llcBypasses);
    if (r.seed != 0)
        out += ", \"seed\": " + std::to_string(r.seed);
    if (r.multiCore) {
        out += ", \"coreIpc\": [";
        for (std::size_t c = 0; c < r.coreIpc.size(); ++c) {
            if (c)
                out += ", ";
            out += json::formatDouble(r.coreIpc[c]);
        }
        out += "]";
    }
    if (!r.ok()) {
        out += ", \"error\": \"" + json::escape(r.error) + "\"";
        out += std::string(", \"errorCode\": \"") +
               errorCodeName(r.errorCode) + "\"";
    }
    out += "}";
    return out;
}

std::optional<RunResult>
resultFromJson(const std::string& json)
{
    RunResult r;
    if (!JsonParser(json).parse(r))
        return std::nullopt;
    return r;
}

std::string
journalLine(const RunResult& result)
{
    return journal::frameLine(resultJson(result));
}

std::optional<RunResult>
parseJournalLine(const std::string& line)
{
    const auto json = journal::unframeLine(line);
    if (!json)
        return std::nullopt;
    return resultFromJson(*json);
}

std::vector<RunResult>
loadJournal(const std::string& path)
{
    const std::string content = journal::readWholeFile(path);
    // Scan with the RunResult-aware line parser rather than the
    // generic frame scanner, so a line whose checksum is intact but
    // whose schema has drifted is still classified (torn tail if
    // final, CorruptInput otherwise) exactly as before.
    std::vector<RunResult> entries;
    std::size_t pos = 0;
    std::size_t line_no = 0;
    while (pos < content.size()) {
        ++line_no;
        const std::size_t nl = content.find('\n', pos);
        const bool complete = nl != std::string::npos;
        const std::size_t len =
            (complete ? nl : content.size()) - pos;
        auto parsed = parseJournalLine(content.substr(pos, len));
        const std::size_t next = complete ? nl + 1 : content.size();
        if (!parsed) {
            fatalIf(next < content.size(), ErrorCode::CorruptInput,
                    "corrupt checkpoint journal " + path + ": line " +
                        std::to_string(line_no) +
                        " fails checksum/parse but is not the final "
                        "line");
            return entries; // torn tail: drop it
        }
        entries.push_back(std::move(*parsed));
        pos = next;
    }
    return entries;
}

CheckpointJournal::CheckpointJournal(const std::string& path)
    : file_(path, "runner.journal")
{
}

void
CheckpointJournal::append(const RunResult& result)
{
    file_.append(resultJson(result));
}

} // namespace mrp::runner

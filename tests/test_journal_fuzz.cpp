/**
 * @file
 * Seeded mutation fuzzing of the CRC-framed journal decoder
 * (journal::unframeLine and journal::scanContent) over real runner
 * checkpoint lines.
 *
 * The mutations are bit flips, truncation at every byte, splices
 * between lines, edits to the 8-hex CRC field, and tokens cut from the
 * line itself. A single-line mutant must be rejected (nullopt) or be,
 * up to trailing CR/LF, exactly the framing of a body that was framed:
 * it then unframes to that body. A multi-line mutant must scan to the
 * framed lines before its first bad line, with a typed CorruptInput
 * when that bad line is not the last one and a dropped torn tail when
 * it is. The random part of each case stops at an iteration cap or a
 * wall-clock budget, whichever comes first, so a slow (sanitized)
 * build still finishes inside its ctest timeout.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "runner/checkpoint.hpp"
#include "runner/experiment_runner.hpp"
#include "trace/spec.hpp"
#include "trace/workloads.hpp"
#include "util/journal.hpp"
#include "util/json_reader.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace mrp {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRandomMutants = 20000;
constexpr auto kBudget = std::chrono::seconds(5);

/** Runner checkpoint lines for a few real runs, one of them failed. */
const std::vector<std::string>&
corpus()
{
    static const std::vector<std::string> lines = [] {
        std::vector<std::string> out;
        const auto a = trace::makeSuiteTrace(2, 20000);
        const auto b = trace::makeSuiteTrace(11, 20000);
        unsigned index = 0;
        for (const auto* tr : {&a, &b})
            for (const char* policy : {"LRU", "MPPPB", "NoSuch"})
                out.push_back(runner::journalLine(
                    runner::ExperimentRunner::runOne(
                        runner::RunRequest::singleCore(
                            trace::TraceSpec::borrowed(*tr),
                            runner::PolicySpec::byName(policy)),
                        index++)));
        return out;
    }();
    return lines;
}

/** The JSON bodies the corpus lines were framed from. */
const std::set<std::string>&
bodies()
{
    static const std::set<std::string> out = [] {
        std::set<std::string> s;
        for (const auto& line : corpus()) {
            const auto json = journal::unframeLine(line);
            if (json)
                s.insert(*json);
        }
        return s;
    }();
    return out;
}

std::string
stripEol(std::string s)
{
    while (!s.empty() && (s.back() == '\n' || s.back() == '\r'))
        s.pop_back();
    return s;
}

/**
 * The single-line contract: rejected, or @p mutant is (up to trailing
 * CR/LF) the framing of a framed body, and unframes to that body.
 */
void
expectRejectedOrExact(const std::string& mutant, const std::string& what)
{
    const auto got = journal::unframeLine(mutant);
    if (!got)
        return;
    ASSERT_TRUE(bodies().count(*got)) << what << ": accepted a new body";
    ASSERT_EQ(stripEol(mutant), stripEol(journal::frameLine(*got)))
        << what << ": accepted bytes that are not its framing";
}

/** Pieces of @p line to insert elsewhere: its JSON tokens and frame. */
std::vector<std::string>
dictionaryOf(const std::string& line)
{
    std::vector<std::string> tokens = {line.substr(0, 9), "\n", "\r",
                                       " ", "{}", "\"\"", "00000000 "};
    std::size_t start = 9;
    for (std::size_t i = 9; i < line.size(); ++i) {
        const char c = line[i];
        if (c == '"' || c == ',' || c == ':' || c == '{' || c == '}' ||
            c == '[' || c == ']') {
            if (i > start)
                tokens.push_back(line.substr(start, i - start));
            tokens.emplace_back(1, c);
            start = i + 1;
        }
    }
    return tokens;
}

/** dictionaryOf each corpus line, in corpus order. */
const std::vector<std::vector<std::string>>&
dictionaries()
{
    static const auto out = [] {
        std::vector<std::vector<std::string>> d;
        for (const auto& line : corpus())
            d.push_back(dictionaryOf(line));
        return d;
    }();
    return out;
}

/** Characters a CRC digit is edited to: hex in both cases and not. */
constexpr char kHexish[] = "0123456789abcdefABCDEFxg ";

/** Seeded mutations; each appends what it did to @p what. */
class Mutator
{
  public:
    explicit Mutator(std::uint64_t seed) : rng_(seed) {}

    std::size_t
    below(std::size_t n)
    {
        return static_cast<std::size_t>(rng_.below(n));
    }

    /**
     * One mutation of @p s: splices take bytes from a corpus line, and
     * inserted tokens come from @p tokens.
     */
    std::string
    mutate(const std::string& s, const std::vector<std::string>& tokens,
           std::string& what)
    {
        const std::size_t at = below(s.size() + 1);
        switch (below(5)) {
        case 0: {
            if (s.empty())
                return s;
            std::string m = s;
            const std::size_t i = below(m.size());
            const unsigned bit = static_cast<unsigned>(below(8));
            m[i] = static_cast<char>(m[i] ^ (1u << bit));
            what += "; bit " + std::to_string(bit) + " of byte " +
                    std::to_string(i);
            return m;
        }
        case 1: {
            const auto& o = corpus()[below(corpus().size())];
            const std::size_t from = below(o.size() + 1);
            what += "; bytes to " + std::to_string(at) +
                    ", then a corpus line from " + std::to_string(from);
            return s.substr(0, at) + o.substr(from);
        }
        case 2: {
            // A digit of the CRC field of the line holding byte `at`.
            std::size_t line_start = 0;
            if (at > 0) {
                const std::size_t nl = s.rfind('\n', at - 1);
                if (nl != std::string::npos)
                    line_start = nl + 1;
            }
            if (line_start + 8 > s.size())
                return s;
            std::string m = s;
            const std::size_t digit = line_start + below(8);
            m[digit] = kHexish[below(sizeof kHexish - 1)];
            what += "; crc digit at " + std::to_string(digit);
            return m;
        }
        case 3: {
            const auto& token = tokens[below(tokens.size())];
            const bool replace = below(2) == 1 && at < s.size();
            what += (replace ? "; replaced at " : "; inserted at ") +
                    std::to_string(at) + ": " + token;
            return s.substr(0, at) + token +
                   s.substr(replace ? at + 1 : at);
        }
        default:
            what += "; cut at " + std::to_string(at);
            return s.substr(0, at);
        }
    }

  private:
    Rng rng_;
};

TEST(JournalFuzzTest, CorpusLinesRoundTrip)
{
    ASSERT_EQ(corpus().size(), 6u);
    ASSERT_EQ(bodies().size(), corpus().size());
    for (const auto& line : corpus()) {
        const auto json = journal::unframeLine(line);
        ASSERT_TRUE(json.has_value()) << line;
        EXPECT_EQ(journal::frameLine(*json), line);
    }
}

TEST(JournalFuzzTest, EveryBodyIsStrictJson)
{
    // The strict generic reader accepts every body the runner writes,
    // every number formatted by json::formatDouble included.
    ASSERT_FALSE(bodies().empty());
    for (const auto& body : bodies()) {
        json::Value v;
        EXPECT_TRUE(json::tryParseJson(body, &v)) << body;
        EXPECT_TRUE(v.isObject()) << body;
    }
}

TEST(JournalFuzzTest, EveryBitFlipIsRejected)
{
    // A CRC-32 detects every single-bit error in the body; a flip in
    // the hex field or the separator breaks the frame itself.
    for (const auto& line : corpus()) {
        for (std::size_t i = 0; i < line.size(); ++i) {
            for (unsigned bit = 0; bit < 8; ++bit) {
                std::string m = line;
                m[i] = static_cast<char>(m[i] ^ (1u << bit));
                ASSERT_FALSE(journal::unframeLine(m).has_value())
                    << "bit " << bit << " of byte " << i << " of " << line;
            }
        }
    }
}

TEST(JournalFuzzTest, EveryTruncationIsRejectedUnlessOnlyTheNewlineGoes)
{
    for (const auto& line : corpus()) {
        const auto want = journal::unframeLine(line);
        for (std::size_t cut = 0; cut < line.size(); ++cut) {
            const auto got = journal::unframeLine(line.substr(0, cut));
            if (cut + 1 == line.size())
                EXPECT_EQ(got, want) << "newline dropped";
            else
                ASSERT_FALSE(got.has_value()) << "cut at " << cut;
        }
    }
}

TEST(JournalFuzzTest, EveryCrcFieldEditIsRejected)
{
    for (const auto& line : corpus()) {
        for (std::size_t digit = 0; digit < 9; ++digit) {
            for (const char c : std::string(kHexish)) {
                if (c == line[digit])
                    continue;
                std::string m = line;
                m[digit] = c;
                ASSERT_FALSE(journal::unframeLine(m).has_value())
                    << "position " << digit << " set to '" << c << "'";
            }
        }
        // Another line's (valid) checksum over this line's body.
        for (const auto& other : corpus()) {
            if (other == line)
                continue;
            ASSERT_FALSE(journal::unframeLine(other.substr(0, 9) +
                                              line.substr(9))
                             .has_value());
        }
    }
}

TEST(JournalFuzzTest, SeededLineMutantsAreRejectedOrExact)
{
    Mutator mut(0x10F2);
    const auto until = Clock::now() + kBudget;
    int done = 0;
    for (; done < kRandomMutants && Clock::now() < until; ++done) {
        const std::size_t k = mut.below(corpus().size());
        std::string m = corpus()[k];
        std::string what = "line " + std::to_string(k);
        const std::size_t rounds = 1 + mut.below(3);
        for (std::size_t r = 0; r < rounds; ++r)
            m = mut.mutate(m, dictionaries()[k], what);
        expectRejectedOrExact(m, what);
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(done, 100);
}

/**
 * The scan contract, from unframeLine alone: the lines before the first
 * bad one are kept; a bad line with bytes after its newline is typed
 * corruption, a bad final chunk is a torn tail that is dropped.
 */
void
expectScanContract(const std::string& content, const std::string& what)
{
    std::vector<std::string> want;
    std::uint64_t want_valid = 0;
    bool corrupt = false;
    for (std::size_t pos = 0; pos < content.size();) {
        const std::size_t nl = content.find('\n', pos);
        const std::size_t end = nl == std::string::npos ? content.size()
                                                        : nl + 1;
        const auto json = journal::unframeLine(content.substr(pos, end - pos));
        if (!json) {
            corrupt = end < content.size();
            break;
        }
        ASSERT_EQ(stripEol(content.substr(pos, end - pos)),
                  stripEol(journal::frameLine(*json)))
            << what << ": line kept from bytes that are not its framing";
        want.push_back(*json);
        want_valid = end;
        pos = end;
    }
    try {
        const auto scan = journal::scanContent(content, "fuzz.jsonl");
        ASSERT_FALSE(corrupt) << what << ": interior corruption accepted";
        ASSERT_EQ(scan.lines, want) << what;
        ASSERT_EQ(scan.validBytes, want_valid) << what;
    } catch (const FatalError& e) {
        ASSERT_TRUE(corrupt) << what << ": " << e.what();
        ASSERT_EQ(e.code(), ErrorCode::CorruptInput) << what;
    }
    for (const auto& json : want)
        ASSERT_TRUE(bodies().count(json)) << what << ": new body accepted";
}

std::string
wholeJournal()
{
    std::string content;
    for (const auto& line : corpus())
        content += line;
    return content;
}

TEST(JournalFuzzTest, EveryJournalTruncationKeepsTheWholeLines)
{
    const std::string content = wholeJournal();
    for (std::size_t cut = 0; cut <= content.size(); ++cut) {
        const auto scan =
            journal::scanContent(content.substr(0, cut), "fuzz.jsonl");
        // A line is kept once all of it but its newline is present.
        std::size_t whole = 0;
        std::uint64_t valid = 0;
        for (std::size_t end = 0; whole < corpus().size(); ++whole) {
            end += corpus()[whole].size();
            if (end - 1 > cut)
                break;
            valid = std::min<std::uint64_t>(end, cut);
        }
        ASSERT_EQ(scan.lines.size(), whole) << "cut at " << cut;
        ASSERT_EQ(scan.validBytes, valid) << "cut at " << cut;
    }
}

TEST(JournalFuzzTest, SeededJournalMutantsScanToTheirValidPrefix)
{
    const std::string content = wholeJournal();
    Mutator mut(0x5CA7);
    const auto until = Clock::now() + kBudget;
    int done = 0;
    for (; done < kRandomMutants && Clock::now() < until; ++done) {
        std::string m = content;
        std::string what = "journal";
        const std::size_t rounds = 1 + mut.below(3);
        for (std::size_t r = 0; r < rounds; ++r)
            m = mut.mutate(
                m, dictionaries()[mut.below(dictionaries().size())], what);
        expectScanContract(m, what);
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(done, 100);
}

} // namespace
} // namespace mrp

/**
 * @file
 * Tests for the checks in util/logging.hpp: a passing check with a
 * string-literal message allocates nothing, and a failing one still
 * throws the right exception with the exact message and code.
 *
 * This is its own executable because it replaces the global operator
 * new with a counting one.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "util/logging.hpp"

namespace {

/** Allocations made through the global operator new so far. */
std::size_t g_allocations = 0;

} // namespace

void*
operator new(std::size_t size)
{
    ++g_allocations;
    if (void* p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace mrp {
namespace {

// 40 characters: far past any small-string buffer.
constexpr const char* kMessage =
    "a forty-character check message, exactly";
static_assert(std::char_traits<char>::length(kMessage) == 40);

constexpr int kCalls = 100000;

TEST(LoggingTest, PassingChecksDoNotAllocate)
{
    // The condition is read through a volatile so that the checks
    // cannot be folded away at compile time.
    volatile bool fail = false;
    const std::size_t before = g_allocations;
    for (int i = 0; i < kCalls; ++i) {
        panicIf(fail, "a forty-character check message, exactly");
        fatalIf(fail, "a forty-character check message, exactly");
        fatalIf(fail, ErrorCode::CorruptInput,
                "a forty-character check message, exactly");
        panicIf(fail, kMessage);
        fatalIf(fail, kMessage);
        fatalIf(fail, ErrorCode::Io, kMessage);
    }
    EXPECT_EQ(g_allocations - before, 0u);
}

TEST(LoggingTest, FailingPanicIfThrowsWithMessage)
{
    try {
        panicIf(true, kMessage);
        FAIL() << "panicIf(true, ...) returned";
    } catch (const PanicError& e) {
        EXPECT_STREQ(e.what(),
                     "panic: a forty-character check message, exactly");
        EXPECT_EQ(e.code(), ErrorCode::Internal);
    }
}

TEST(LoggingTest, FailingFatalIfThrowsWithMessageAndCode)
{
    try {
        fatalIf(true, kMessage);
        FAIL() << "fatalIf(true, ...) returned";
    } catch (const FatalError& e) {
        EXPECT_STREQ(e.what(),
                     "fatal: a forty-character check message, exactly");
        EXPECT_EQ(e.code(), ErrorCode::Config);
    }
    try {
        fatalIf(true, ErrorCode::CorruptInput, kMessage);
        FAIL() << "fatalIf(true, code, ...) returned";
    } catch (const FatalError& e) {
        EXPECT_STREQ(e.what(),
                     "fatal: a forty-character check message, exactly");
        EXPECT_EQ(e.code(), ErrorCode::CorruptInput);
    }
}

TEST(LoggingTest, ComposedMessagesStillWork)
{
    const std::string what = "trace.v3";
    EXPECT_NO_THROW(fatalIf(false, "cannot open " + what));
    try {
        fatalIf(true, ErrorCode::Io, "cannot open " + what);
        FAIL() << "fatalIf(true, code, ...) returned";
    } catch (const FatalError& e) {
        EXPECT_STREQ(e.what(), "fatal: cannot open trace.v3");
        EXPECT_EQ(e.code(), ErrorCode::Io);
    }
    EXPECT_THROW(panicIf(true, std::string("composed")), PanicError);
}

} // namespace
} // namespace mrp

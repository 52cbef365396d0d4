/**
 * @file
 * Error-reporting helpers in the gem5 tradition: panic() for internal
 * invariant violations, fatal() for user/configuration errors.
 *
 * Both exception types carry a machine-readable ErrorCode so callers
 * that capture failures as data (the experiment runner's RunResult,
 * the JSON reports) can distinguish corrupt input from configuration
 * mistakes from internal bugs without parsing message strings.
 */

#ifndef MRP_UTIL_LOGGING_HPP
#define MRP_UTIL_LOGGING_HPP

#include <stdexcept>
#include <string>
#include <string_view>

namespace mrp {

/**
 * Machine-readable failure classification, carried by FatalError /
 * PanicError and surfaced in RunResult::errorCode and the batch
 * reports. Io / Timeout / Resource failures are considered transient
 * (retryable by the runner); the rest are permanent.
 */
enum class ErrorCode {
    None = 0,     //!< no error (successful run)
    Config,       //!< invalid configuration or argument (caller bug)
    CorruptInput, //!< malformed or corrupt input data (trace, journal)
    Io,           //!< I/O failure: open, read, write, fsync
    Resource,     //!< allocation failure or resource exhaustion
    Timeout,      //!< per-run watchdog deadline exceeded
    Internal,     //!< library invariant violation (our bug)
};

/** Stable snake_case name of a code, as emitted in reports. */
constexpr const char*
errorCodeName(ErrorCode code)
{
    switch (code) {
    case ErrorCode::None: return "none";
    case ErrorCode::Config: return "config";
    case ErrorCode::CorruptInput: return "corrupt_input";
    case ErrorCode::Io: return "io";
    case ErrorCode::Resource: return "resource";
    case ErrorCode::Timeout: return "timeout";
    case ErrorCode::Internal: return "internal";
    }
    return "internal";
}

/** Inverse of errorCodeName(); unknown names map to Internal. */
constexpr ErrorCode
errorCodeFromName(std::string_view name)
{
    if (name == "none")
        return ErrorCode::None;
    if (name == "config")
        return ErrorCode::Config;
    if (name == "corrupt_input")
        return ErrorCode::CorruptInput;
    if (name == "io")
        return ErrorCode::Io;
    if (name == "resource")
        return ErrorCode::Resource;
    if (name == "timeout")
        return ErrorCode::Timeout;
    return ErrorCode::Internal;
}

/** True for failures worth retrying (transient by nature). */
constexpr bool
isRetryable(ErrorCode code)
{
    return code == ErrorCode::Io || code == ErrorCode::Timeout ||
           code == ErrorCode::Resource;
}

/** Thrown when the library itself detects an internal inconsistency. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string& msg)
        : std::logic_error("panic: " + msg) {}

    /** Internal invariant violations are always ErrorCode::Internal. */
    ErrorCode code() const { return ErrorCode::Internal; }
};

/** Thrown when a caller supplies an invalid configuration or argument,
 * or an operation on external state (files, traces) fails. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string& msg)
        : FatalError(ErrorCode::Config, msg) {}

    FatalError(ErrorCode code, const std::string& msg)
        : std::runtime_error("fatal: " + msg), code_(code) {}

    ErrorCode code() const { return code_; }

  private:
    ErrorCode code_;
};

/** Report an internal bug; never returns. */
[[noreturn]] inline void
panic(const std::string& msg)
{
    throw PanicError(msg);
}

/** Report a user error (bad configuration, bad argument); never returns. */
[[noreturn]] inline void
fatal(const std::string& msg)
{
    throw FatalError(msg);
}

/** Report a classified failure; never returns. */
[[noreturn]] inline void
fatal(ErrorCode code, const std::string& msg)
{
    throw FatalError(code, msg);
}

/*
 * The checks take a std::string_view so that a passing check with a
 * string-literal message costs one compare and allocates nothing; the
 * message string is built only when the check fails. Messages composed
 * at the call site live until the end of the full expression.
 */

/** Panic if @p cond holds. */
inline void
panicIf(bool cond, std::string_view msg)
{
    if (cond) [[unlikely]]
        panic(std::string(msg));
}

/** Fatal error if @p cond holds. */
inline void
fatalIf(bool cond, std::string_view msg)
{
    if (cond) [[unlikely]]
        fatal(std::string(msg));
}

/** Classified fatal error if @p cond holds. */
inline void
fatalIf(bool cond, ErrorCode code, std::string_view msg)
{
    if (cond) [[unlikely]]
        fatal(code, std::string(msg));
}

} // namespace mrp

#endif // MRP_UTIL_LOGGING_HPP

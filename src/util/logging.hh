/**
 * @file
 * Status-message and error-reporting helpers in the style of gem5's
 * base/logging facility.
 *
 * Severity levels:
 *  - inform(): normal operating status, no connotation of error.
 *  - warn():   something is questionable but simulation continues.
 *  - fatal():  the run cannot continue because of a *user* error
 *              (bad configuration, invalid argument); exits with code 1.
 *  - panic():  an internal invariant was violated (a bug in this
 *              library); aborts so a core dump / debugger is possible.
 */

#ifndef CACHELAB_UTIL_LOGGING_HH
#define CACHELAB_UTIL_LOGGING_HH

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace cachelab
{

namespace detail
{

/** Append the tail arguments of a message to an output stream. */
inline void
appendArgs(std::ostringstream &os)
{
    (void)os;
}

template <typename First, typename... Rest>
void
appendArgs(std::ostringstream &os, const First &first, const Rest &...rest)
{
    os << first;
    appendArgs(os, rest...);
}

/** Render a severity-tagged message line. */
template <typename... Args>
std::string
renderMessage(std::string_view tag, const Args &...args)
{
    std::ostringstream os;
    os << tag << ": ";
    appendArgs(os, args...);
    return os.str();
}

/**
 * Emit one already-rendered line to the log sink (stderr by default).
 * Thread-safe: a process-wide mutex serializes whole lines, so
 * inform()/warn() calls from parallel sweep workers never interleave
 * mid-line.
 */
void emitLine(const std::string &line);

/** fatal()'s ending: emit @p line once and exit 1 (see fatal()). */
[[noreturn]] void exitFatal(const std::string &line);

} // namespace detail

/** Controls whether inform()/warn() output is emitted (tests silence it). */
void setLoggingEnabled(bool enabled);

/** @return true when inform()/warn() output is currently emitted. */
bool loggingEnabled();

/**
 * Minimum severity that is emitted.  The initial value comes from the
 * CACHELAB_LOG environment variable: "silent" (or "quiet"/"none"),
 * "warn", "info" (the default), or "debug".  fatal()/panic() always
 * print.
 */
enum class LogLevel
{
    Silent = 0, ///< suppress inform() and warn()
    Warn = 1,   ///< suppress inform(), keep warn()
    Info = 2,   ///< everything except debug (default)
    Debug = 3,  ///< everything, incl. per-request service chatter
};

/** Override the CACHELAB_LOG-derived level at runtime. */
void setLogLevel(LogLevel level);

/** @return the current log level. */
LogLevel logLevel();

/** @return true when messages of @p severity are emitted. */
inline bool
logLevelEnabled(LogLevel severity)
{
    return loggingEnabled() &&
        static_cast<int>(logLevel()) >= static_cast<int>(severity);
}

/** Print an informational status message. */
template <typename... Args>
void
inform(const Args &...args)
{
    if (logLevelEnabled(LogLevel::Info))
        detail::emitLine(detail::renderMessage("info", args...));
}

/** Print a warning about questionable-but-survivable conditions. */
template <typename... Args>
void
warn(const Args &...args)
{
    if (logLevelEnabled(LogLevel::Warn))
        detail::emitLine(detail::renderMessage("warn", args...));
}

/**
 * Terminate because of a user-level configuration error: print one
 * "fatal:" line, flush std::cout and C stdio, and end the process with
 * std::_Exit(1).  No static destructor or atexit handler runs, so none
 * can join or free what other threads still use.  The first caller
 * ends the process; a concurrent caller (another pool worker) blocks
 * for good, so several workers that fail at once print one line.
 */
template <typename... Args>
[[noreturn]] void
fatal(const Args &...args)
{
    detail::exitFatal(detail::renderMessage("fatal", args...));
}

/** Terminate because an internal invariant does not hold (library bug). */
template <typename... Args>
[[noreturn]] void
panic(const Args &...args)
{
    detail::emitLine(detail::renderMessage("panic", args...));
    std::abort();
}

// ------------------------------------------------------------------
// Structured logging: leveled, timestamped, machine-greppable lines
// for long-running services (the campaign daemon).  One line per
// event:
//
//   info 2026-08-09T07:14:20.123Z serve.server request accepted
//       conn=3 request=7 tenant=tenant-a            (one line)
//
// Severity word, ISO-8601 UTC timestamp with milliseconds, component,
// free-form message, then key=value fields (values are quoted and
// escaped when they contain whitespace, '"' or '=').  The CACHELAB_LOG
// level filter applies exactly as for inform()/warn(): Debug lines
// need CACHELAB_LOG=debug.
// ------------------------------------------------------------------

/** One key=value field of a structured log line. */
struct LogField
{
    std::string_view key;
    std::string value;

    LogField(std::string_view k, std::string v)
        : key(k), value(std::move(v))
    {}

    LogField(std::string_view k, std::string_view v)
        : key(k), value(v)
    {}

    LogField(std::string_view k, const char *v) : key(k), value(v) {}

    template <typename T>
    LogField(std::string_view k, T v)
        requires std::is_arithmetic_v<T>
        : key(k)
    {
        std::ostringstream os;
        os << v;
        value = os.str();
    }
};

namespace detail
{

/** @return the formatted line (without emitting it); testable core. */
std::string formatStructuredLine(LogLevel severity,
                                 std::string_view component,
                                 std::string_view message,
                                 const std::vector<LogField> &fields);

} // namespace detail

/**
 * Emit one structured line at @p severity (no-op below the current
 * level).  @p component names the subsystem ("serve.server"); @p
 * message is a short human phrase; @p fields carry the identifiers.
 */
void logStructured(LogLevel severity, std::string_view component,
                   std::string_view message,
                   const std::vector<LogField> &fields = {});

/** panic() unless the stated invariant holds. */
#define CACHELAB_ASSERT(cond, ...)                                          \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::cachelab::panic("assertion '", #cond, "' failed at ",         \
                              __FILE__, ":", __LINE__, ": ", __VA_ARGS__);  \
        }                                                                   \
    } while (0)

} // namespace cachelab

#endif // CACHELAB_UTIL_LOGGING_HH

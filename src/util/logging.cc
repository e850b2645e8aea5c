/**
 * @file
 * Implementation of the logging sink.
 */

#include "util/logging.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <mutex>

namespace cachelab
{

namespace
{

std::atomic<bool> gLoggingEnabled{true};

/**
 * Initial level from CACHELAB_LOG.  An unknown value falls back to
 * Info rather than fatal()ing: the logging layer must never kill a
 * run over a cosmetic knob.
 */
LogLevel
levelFromEnvironment()
{
    const char *env = std::getenv("CACHELAB_LOG");
    if (env == nullptr)
        return LogLevel::Info;
    const std::string_view v(env);
    if (v == "silent" || v == "quiet" || v == "none")
        return LogLevel::Silent;
    if (v == "warn" || v == "warning")
        return LogLevel::Warn;
    if (v == "debug")
        return LogLevel::Debug;
    return LogLevel::Info;
}

/** Severity word used as the first token of a structured line. */
std::string_view
severityWord(LogLevel severity)
{
    switch (severity) {
      case LogLevel::Warn:
        return "warn";
      case LogLevel::Debug:
        return "debug";
      case LogLevel::Silent:
      case LogLevel::Info:
        break;
    }
    return "info";
}

/** Current wall-clock time as ISO-8601 UTC with milliseconds. */
std::string
isoTimestampUtc()
{
    using namespace std::chrono;
    const auto now = system_clock::now();
    const std::time_t seconds = system_clock::to_time_t(now);
    const auto ms =
        duration_cast<milliseconds>(now.time_since_epoch()).count() % 1000;
    std::tm tm{};
    gmtime_r(&seconds, &tm);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%04u-%02u-%02uT%02u:%02u:%02u.%03uZ",
                  static_cast<unsigned>(tm.tm_year + 1900) % 10000u,
                  static_cast<unsigned>(tm.tm_mon + 1),
                  static_cast<unsigned>(tm.tm_mday),
                  static_cast<unsigned>(tm.tm_hour),
                  static_cast<unsigned>(tm.tm_min),
                  static_cast<unsigned>(tm.tm_sec),
                  static_cast<unsigned>(ms));
    return buf;
}

/** true when @p value needs quoting in a k=v field. */
bool
needsQuoting(std::string_view value)
{
    if (value.empty())
        return true;
    for (const char c : value)
        if (c == ' ' || c == '\t' || c == '"' || c == '=' || c == '\n')
            return true;
    return false;
}

void
appendFieldValue(std::string &out, std::string_view value)
{
    if (!needsQuoting(value)) {
        out += value;
        return;
    }
    out += '"';
    for (const char c : value) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    out += '"';
}

std::atomic<LogLevel> gLogLevel{levelFromEnvironment()};

} // namespace

void
setLoggingEnabled(bool enabled)
{
    gLoggingEnabled.store(enabled, std::memory_order_relaxed);
}

bool
loggingEnabled()
{
    return gLoggingEnabled.load(std::memory_order_relaxed);
}

void
setLogLevel(LogLevel level)
{
    gLogLevel.store(level, std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return gLogLevel.load(std::memory_order_relaxed);
}

namespace detail
{

void
emitLine(const std::string &line)
{
    // One mutex around the whole line: concurrent sweep workers each
    // get an intact line instead of interleaved fragments.  The lock
    // is per message, not per <<, so the hot path never sees it.
    static std::mutex mutex;
    std::lock_guard<std::mutex> lock(mutex);
    std::cerr << line << '\n';
}

void
exitFatal(const std::string &line)
{
    // Locked for good: the first caller ends the process while holding
    // it, and every later caller waits here until the process is gone.
    static std::mutex mutex;
    mutex.lock();
    emitLine(line);
    std::cout.flush();
    std::fflush(nullptr);
    std::_Exit(1);
}

std::string
formatStructuredLine(LogLevel severity, std::string_view component,
                     std::string_view message,
                     const std::vector<LogField> &fields)
{
    std::string line;
    line.reserve(64 + message.size() + fields.size() * 16);
    line += severityWord(severity);
    line += ' ';
    line += isoTimestampUtc();
    line += ' ';
    line += component;
    line += ' ';
    line += message;
    for (const LogField &field : fields) {
        line += ' ';
        line += field.key;
        line += '=';
        appendFieldValue(line, field.value);
    }
    return line;
}

} // namespace detail

void
logStructured(LogLevel severity, std::string_view component,
              std::string_view message, const std::vector<LogField> &fields)
{
    if (!logLevelEnabled(severity))
        return;
    detail::emitLine(
        detail::formatStructuredLine(severity, component, message, fields));
}

} // namespace cachelab

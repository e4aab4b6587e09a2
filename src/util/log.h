// Leveled logging with a process-wide level and a pluggable sink
// (defaulting to stderr).
//
// The Performance Consultant emits Trace-level lines for every search event
// (instrument, conclude, refine); benches run with Warn to keep table output
// clean, and tests raise the level when debugging a search. Structured
// machine-readable search telemetry lives in src/telemetry — the log is for
// humans.
#pragma once

#include <functional>
#include <sstream>
#include <string>

namespace histpc::util {

enum class LogLevel { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4, Off = 5 };

LogLevel log_level();
void set_log_level(LogLevel level);
const char* log_level_name(LogLevel level);

/// Where emitted lines go. The default sink writes "[LEVEL] message\n" to
/// stderr; tests install a capturing sink so ctest output stays clean.
using LogSink = std::function<void(LogLevel, const std::string&)>;

/// Replace the sink; an empty function restores the stderr default.
/// Like the level, the sink is process-wide and not synchronized.
void set_log_sink(LogSink sink);

namespace detail {
void emit(LogLevel level, const std::string& message);
}

/// Builds one log line; emits on destruction. Use via the HISTPC_LOG macro.
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { detail::emit(level_, stream_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace histpc::util

// Short-circuits stream construction when the level is filtered out.
#define HISTPC_LOG(level)                                            \
  if (::histpc::util::log_level() > ::histpc::util::LogLevel::level) \
    ;                                                                \
  else                                                               \
    ::histpc::util::LogLine(::histpc::util::LogLevel::level)

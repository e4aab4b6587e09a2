#include "util/log.h"

#include <cstdio>

namespace histpc::util {

namespace {
LogLevel g_level = LogLevel::Warn;
LogSink g_sink;  // empty = default stderr sink
}

LogLevel log_level() { return g_level; }
void set_log_level(LogLevel level) { g_level = level; }
void set_log_sink(LogSink sink) { g_sink = std::move(sink); }

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Trace: return "TRACE";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO";
    case LogLevel::Warn: return "WARN";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF";
  }
  return "?";
}

namespace detail {
void emit(LogLevel level, const std::string& message) {
  if (g_sink) {
    g_sink(level, message);
    return;
  }
  std::fprintf(stderr, "[%s] %s\n", log_level_name(level), message.c_str());
}
}  // namespace detail

}  // namespace histpc::util

#include "common/log.hpp"

#include <cstdio>

namespace smarth {

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

bool parse_log_level(const std::string& name, LogLevel& out) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower += static_cast<char>(
        c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
  }
  if (lower == "trace") out = LogLevel::kTrace;
  else if (lower == "debug") out = LogLevel::kDebug;
  else if (lower == "info") out = LogLevel::kInfo;
  else if (lower == "warn" || lower == "warning") out = LogLevel::kWarn;
  else if (lower == "error") out = LogLevel::kError;
  else if (lower == "off" || lower == "none") out = LogLevel::kOff;
  else return false;
  return true;
}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::write(LogLevel level, const std::string& component,
                   const std::string& message) {
  if (!enabled(level)) return;
  // Appended piece by piece: GCC 12's -Wrestrict cannot rule out overlap in
  // the temporaries a chain of operator+ builds.
  std::string line;
  if (time_source_) {
    line += '[';
    line += format_duration(time_source_());
    line += "] ";
  }
  line += '[';
  line += log_level_name(level);
  line += "] [";
  line += component;
  line += "] ";
  line += message;
  if (sink_) {
    sink_(line);
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

KvLogStatement::KvLogStatement(LogLevel level, std::string component,
                               std::string event)
    : level_(level), component_(std::move(component)) {
  line_ = "event=" + event;
}

KvLogStatement::~KvLogStatement() {
  Logger::instance().write(level_, component_, line_);
}

KvLogStatement& KvLogStatement::kv(std::string_view key,
                                   const std::string& value) {
  line_ += " ";
  line_.append(key);
  line_ += "=";
  const bool needs_quotes =
      value.empty() || value.find_first_of(" \t\"") != std::string::npos;
  if (!needs_quotes) {
    line_ += value;
    return *this;
  }
  line_ += "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') line_ += '\\';
    line_ += c;
  }
  line_ += "\"";
  return *this;
}

KvLogStatement& KvLogStatement::kv(std::string_view key, const char* value) {
  return kv(key, std::string(value));
}

KvLogStatement& KvLogStatement::kv(std::string_view key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return kv(key, std::string(buf));
}

}  // namespace smarth

// Minimal leveled logger. Warn by default, so tests, benches, tools and
// examples stay quiet; set_log_level lowers the threshold to see more.
#pragma once

#include <sstream>
#include <string>

namespace mavr::support {

enum class LogLevel { Trace, Debug, Info, Warn, Error, Off };

/// Sets the global minimum level that is emitted.
void set_log_level(LogLevel level);

/// Current global minimum level.
LogLevel log_level();

/// Emits one log line to stderr if `level` passes the global threshold.
void log_line(LogLevel level, const std::string& component,
              const std::string& message);

namespace detail {

class LogStream {
 public:
  LogStream(LogLevel level, std::string component)
      : level_(level), component_(std::move(component)) {}
  ~LogStream() { log_line(level_, component_, os_.str()); }

  template <typename T>
  LogStream& operator<<(const T& value) {
    os_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  std::ostringstream os_;
};

}  // namespace detail

}  // namespace mavr::support

#define MAVR_LOG(level, component) \
  ::mavr::support::detail::LogStream(::mavr::support::LogLevel::level, (component))

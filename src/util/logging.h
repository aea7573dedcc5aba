#pragma once

// Minimal leveled logging.
//
// `METRO_LOG(kInfo) << "replicated block " << id;` — thread-safe line-at-a-time
// output; lines below kWarning are compiled in but not emitted.

#include <sstream>
#include <string_view>

namespace metro {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kOff = 4 };

namespace internal {

/// One log statement; flushes a single line to stderr on destruction.
class LogLine {
 public:
  LogLine(LogLevel level, std::string_view file, int line);
  ~LogLine();

  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  bool enabled_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace metro

#define METRO_LOG(level)                                            \
  ::metro::internal::LogLine(::metro::LogLevel::level, __FILE__, __LINE__)

#include "util/logging.h"

#include <cstdio>

#include "util/lock_ranks.h"
#include "util/sync.h"

namespace metro {
namespace {

/// The minimum level that is emitted.
constexpr LogLevel kMinLevel = LogLevel::kWarning;

std::string_view LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "D";
    case LogLevel::kInfo: return "I";
    case LogLevel::kWarning: return "W";
    case LogLevel::kError: return "E";
    case LogLevel::kOff: return "-";
  }
  return "?";
}

Mutex& OutputMutex() {
  static Mutex m{lockrank::kUtilLogging, "util.logging"};  // serializes whole lines onto stderr
  return m;
}

}  // namespace

namespace internal {

LogLine::LogLine(LogLevel level, std::string_view file, int line)
    : enabled_(level >= kMinLevel && level != LogLevel::kOff) {
  if (!enabled_) return;
  // Basename keeps lines short.
  const auto slash = file.rfind('/');
  if (slash != std::string_view::npos) file = file.substr(slash + 1);
  stream_ << LevelName(level) << " [" << file << ":" << line << "] ";
}

LogLine::~LogLine() {
  if (!enabled_) return;
  stream_ << '\n';
  const std::string s = stream_.str();
  MutexLock lock(OutputMutex());
  std::fwrite(s.data(), 1, s.size(), stderr);
}

}  // namespace internal
}  // namespace metro

#include "harness.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

namespace metrobench {

namespace {

/// Rank (1-based) of the nearest-rank q-quantile among n samples. The
/// epsilon keeps q * n that is integral in exact arithmetic (0.99 * 1000)
/// from rounding up to the next rank.
std::size_t Rank(std::size_t n, double q) {
  const double r = std::ceil(q * double(n) - 1e-9);
  return std::clamp<std::size_t>(std::size_t(std::max(r, 1.0)), 1, n);
}

}  // namespace

double Quantile(std::span<const double> sorted, double q) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  return sorted[Rank(sorted.size(), q) - 1];
}

std::size_t SamplesBeyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - Rank(n, q);
}

bool Resolvable(std::size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinTail;
}

LatencySummary Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  LatencySummary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  s.p50 = Quantile(samples, 0.50);
  s.p99 = Quantile(samples, 0.99);
  s.p99_resolvable = Resolvable(s.n, 0.99);
  return s;
}

OpenLoop::OpenLoop(TimeNs t0, std::vector<TimeNs> offsets)
    : t0_(t0), offsets_(std::move(offsets)) {}

std::vector<TimeNs> OpenLoop::FixedRate(double rate_per_s, std::int64_t n) {
  std::vector<TimeNs> offsets(std::size_t(std::max<std::int64_t>(n, 0)));
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    offsets[i] = TimeNs(double(i) * 1e9 / rate_per_s);
  }
  return offsets;
}

TimeNs OpenLoop::Start(std::int64_t i, TimeNs now) {
  const TimeNs due = Due(i);
  max_lateness_ = std::max(max_lateness_, now - due);
  return due;
}

TimeNs Now() { return metro::WallClock::Instance().Now(); }

void WaitUntil(TimeNs due) {
  for (TimeNs now = Now(); now < due; now = Now()) {
    if (due - now > 100'000) std::this_thread::yield();
  }
}

// ------------------------------------------------------------------- spans

namespace spans {
namespace {

std::mutex g_mu;
// Buffers outlive their threads: the log is read after the threads that
// filled it have been joined.
std::vector<std::unique_ptr<std::vector<BenchSpan>>> g_buffers;
thread_local std::vector<BenchSpan>* t_buffer = nullptr;

}  // namespace

void Record(const char* name, const char* parent, std::uint64_t op,
            TimeNs start, TimeNs end) {
  if (t_buffer == nullptr) {
    auto buffer = std::make_unique<std::vector<BenchSpan>>();
    buffer->reserve(1 << 16);
    std::lock_guard<std::mutex> lock(g_mu);
    t_buffer = buffer.get();
    g_buffers.push_back(std::move(buffer));
  }
  t_buffer->push_back(BenchSpan{name, parent, op, start, end});
}

std::vector<BenchSpan> Collect() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::size_t n = 0;
  for (const auto& b : g_buffers) n += b->size();
  std::vector<BenchSpan> all;
  all.reserve(n);
  for (const auto& b : g_buffers) all.insert(all.end(), b->begin(), b->end());
  return all;
}

void Clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (auto& b : g_buffers) std::vector<BenchSpan>().swap(*b);
}

}  // namespace spans

std::map<std::string, SpanTimes> ReduceSpans(std::vector<BenchSpan> all) {
  std::sort(all.begin(), all.end(), [](const BenchSpan& a, const BenchSpan& b) {
    return a.op != b.op ? a.op < b.op : a.start < b.start;
  });
  std::map<std::string, SpanTimes> out;
  std::vector<std::pair<TimeNs, TimeNs>> kids;
  for (std::size_t lo = 0; lo < all.size();) {
    std::size_t hi = lo;
    while (hi < all.size() && all[hi].op == all[lo].op) ++hi;
    for (std::size_t i = lo; i < hi; ++i) {
      const BenchSpan& s = all[i];
      kids.clear();
      for (std::size_t j = lo; j < hi; ++j) {
        const BenchSpan& c = all[j];
        if (j == i || c.parent == nullptr ||
            std::strcmp(c.parent, s.name) != 0) {
          continue;
        }
        const TimeNs a = std::max(c.start, s.start);
        const TimeNs b = std::min(c.end, s.end);
        if (a < b) kids.emplace_back(a, b);
      }
      std::sort(kids.begin(), kids.end());
      TimeNs covered = 0, reach = s.start;
      for (const auto& [a, b] : kids) {
        const TimeNs from = std::max(a, reach);
        if (b > from) covered += b - from;
        reach = std::max(reach, b);
      }
      const TimeNs duration = std::max<TimeNs>(s.end - s.start, 0);
      SpanTimes& t = out[s.name];
      t.total_us.push_back(double(duration) / 1e3);
      t.self_us.push_back(double(std::max<TimeNs>(duration - covered, 0)) /
                          1e3);
    }
    lo = hi;
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<BenchSpan>& all,
                std::size_t max_spans) {
  std::ofstream os(path);
  if (!os) return false;
  const std::uint64_t stride =
      std::max<std::uint64_t>(1, (all.size() + max_spans - 1) / max_spans);
  for (const BenchSpan& s : all) {
    if (s.op % stride != 0) continue;
    os << "{\"name\": \"" << s.name << "\", \"parent\": ";
    if (s.parent != nullptr) {
      os << '"' << s.parent << '"';
    } else {
      os << "null";
    }
    os << ", \"op\": " << s.op << ", \"start_ns\": " << s.start
       << ", \"end_ns\": " << s.end << "}\n";
  }
  return bool(os);
}

// ------------------------------------------------------------------ result

void RunResult::Fail(std::string why) {
  correct = false;
  errors.push_back(std::move(why));
}

void RunResult::Add(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

const Metric* RunResult::Find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string ResultLine(const RunResult& result,
                       const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // JSON has no infinity; a latency that includes a failed op (+inf)
    // is written as a value no bound can accept.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 1e300;
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", v);
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + num +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  return line;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return int(std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

int LiveThreads() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return -1;
  int n = 0;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] != '.') ++n;
  }
  closedir(dir);
  return n;
}

}  // namespace metrobench

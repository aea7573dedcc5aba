#pragma once

// The four metrobench workloads. Each call runs one pass: it generates its
// inputs from the seed, sets the system up, drives the measured window,
// checks the outputs against its oracle, and returns every metric it
// measured. A traced pass (`Options::trace`) additionally records
// bench-side spans around each public call and derives the per-layer
// metrics from them; its latency numbers include the tracing cost.

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "harness.h"

namespace metrobench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10;  ///< measured window, warm-up excluded
  bool trace = false;
  std::string out_dir = ".";  ///< where trace_<workload>.jsonl goes
};

RunResult RunCityIngest(const Options& options);
RunResult RunVideoFog(const Options& options);
RunResult RunStoreReadstorm(const Options& options);
RunResult RunMqFanin(const Options& options);

/// Set-up is timed repeatedly and `setup_s` is the median: at least
/// kSetupRepeats times, and again while the total stays under
/// kSetupBudgetS (at most kSetupMaxRepeats times). A set-up of a few
/// microseconds is then timed often enough that scheduler jitter does not
/// decide the number.
inline constexpr std::size_t kSetupRepeats = 3;
inline constexpr std::size_t kSetupMaxRepeats = 25;
inline constexpr double kSetupBudgetS = 0.25;

inline bool MoreSetups(const std::vector<double>& setup_s) {
  double total = 0;
  for (const double s : setup_s) total += s;
  return setup_s.size() < kSetupRepeats ||
         (total < kSetupBudgetS && setup_s.size() < kSetupMaxRepeats);
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return Quantile(v, 0.5);
}

/// Adds `<prefix>_p50_<unit>` / `<prefix>_p99_<unit>`, the nearest-rank
/// quantiles of every sample in the window, and fails the pass when the p99
/// has fewer than kMinTail samples beyond it.
inline LatencySummary AddLatency(RunResult& r, const std::string& prefix,
                                 std::vector<double> samples,
                                 const std::string& unit) {
  const LatencySummary s = Summarize(std::move(samples));
  if (!s.p99_resolvable) {
    r.Fail(prefix + ": " + std::to_string(s.n) +
           " samples cannot resolve a p99");
  }
  r.Add(prefix + "_p50_" + unit, s.p50, unit);
  r.Add(prefix + "_p99_" + unit, s.p99, unit);
  return s;
}

/// Adds `<name>.p50` (and `.p99` when `with_p99`) of a span-time sample.
inline void AddSpanQuantiles(RunResult& r, const std::string& name,
                             std::vector<double> us, bool with_p99,
                             const std::string& unit = "us") {
  std::sort(us.begin(), us.end());
  r.Add(name + ".p50", us.empty() ? 0 : Quantile(us, 0.5), unit);
  if (with_p99) {
    r.Add(name + ".p99", us.empty() ? 0 : Quantile(us, 0.99), unit);
  }
}

/// Completed window ops per second, from the window's start `w0` to the
/// last completion in `done` (0 = never completed). For an open loop this
/// is the offered rate unless a backlog outlives the schedule.
inline double Throughput(std::span<const TimeNs> done, TimeNs w0) {
  std::int64_t n = 0;
  TimeNs last = w0;
  for (const TimeNs t : done) {
    if (t == 0) continue;
    ++n;
    last = std::max(last, t);
  }
  return last > w0 ? double(n) / (double(last - w0) / 1e9) : 0;
}

/// Fails the pass when the workload runs more threads than CPUs: the load
/// must come from at most `nproc` busy threads.
inline void CheckThreads(RunResult& r) {
  const int live = LiveThreads();
  const int cpus = Nproc();
  if (live > cpus) {
    r.Fail("workload runs " + std::to_string(live) + " threads on " +
           std::to_string(cpus) + " CPUs");
  }
}

}  // namespace metrobench

#pragma once

// metrobench harness: the workload-independent half of the benchmark.
//
//   - percentiles by nearest rank, with the rule that a reported
//     percentile has at least kMinTail samples beyond it;
//   - the open-loop schedule: each op's due time is fixed before the run,
//     so it does not depend on how late earlier ops ran; latency is timed
//     from the due time, and the generator's own lateness is accounted
//     separately;
//   - bench-side spans: name, start, end, op id and parent name, kept in
//     per-thread buffers while the workload runs and reduced afterwards to
//     per-name durations and self times;
//   - the run result and its one-line JSON form.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "util/clock.h"

namespace metrobench {

using metro::TimeNs;

// ---------------------------------------------------------------- percentiles

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that it is one or two outliers, not a distribution.
inline constexpr std::size_t kMinTail = 10;

/// Nearest-rank quantile of an ascending sample: the smallest value with at
/// least ceil(q * n) samples at or below it. NaN for an empty sample.
double Quantile(std::span<const double> sorted, double q);

/// Samples strictly above the rank Quantile(q) selects in n samples.
std::size_t SamplesBeyond(std::size_t n, double q);

/// True when the q-quantile of n samples has at least kMinTail beyond it.
bool Resolvable(std::size_t n, double q);

/// Median and p99 of a latency sample. Failed ops enter the sample as
/// +infinity, so a failure counts as missing any latency limit.
struct LatencySummary {
  std::size_t n = 0;
  double p50 = 0;
  double p99 = 0;
  bool p99_resolvable = false;
};
LatencySummary Summarize(std::vector<double> samples);

// -------------------------------------------------------- open-loop schedule

/// Arrival schedule fixed before the run. Op i is due at `t0 + offsets[i]`
/// regardless of when earlier ops finished, so a stall delays later ops'
/// results (and shows in their latency) instead of thinning the load.
class OpenLoop {
 public:
  /// `offsets` ascend.
  OpenLoop(TimeNs t0, std::vector<TimeNs> offsets);

  /// Offsets of `n` ops at a fixed rate, the first at 0.
  static std::vector<TimeNs> FixedRate(double rate_per_s, std::int64_t n);

  TimeNs Due(std::int64_t i) const { return t0_ + offsets_[std::size_t(i)]; }

  /// Accounts op i as started at `now` and returns its due time; how late
  /// the generator ran (now - due) feeds `max_lateness`.
  TimeNs Start(std::int64_t i, TimeNs now);

  /// The latest any op started after it was due.
  TimeNs max_lateness() const { return max_lateness_; }

 private:
  TimeNs t0_;
  std::vector<TimeNs> offsets_;
  TimeNs max_lateness_ = 0;
};

/// Wall-clock now, in ns.
TimeNs Now();

/// Waits on the wall clock until `due`: yields while far from it, spins the
/// last stretch so arrivals are precise.
void WaitUntil(TimeNs due);

// ------------------------------------------------------------------- spans

/// One bench-side span. `name` and `parent` are string literals; `parent`
/// names the enclosing span of the same op (nullptr for an op's root).
struct BenchSpan {
  const char* name = nullptr;
  const char* parent = nullptr;
  std::uint64_t op = 0;
  TimeNs start = 0;
  TimeNs end = 0;
};

/// Process-wide span log over per-thread buffers: recording takes no lock
/// after a thread's first span. Read it only after every recording thread
/// has been joined.
namespace spans {

void Record(const char* name, const char* parent, std::uint64_t op,
            TimeNs start, TimeNs end);
/// All spans recorded so far, from every thread.
std::vector<BenchSpan> Collect();
void Clear();

}  // namespace spans

/// Per-name reduction of a span set, in microseconds.
struct SpanTimes {
  std::vector<double> total_us;  ///< span durations
  std::vector<double> self_us;   ///< durations minus the time children cover
};

/// Self time of a span is its duration minus the union of its children's
/// intervals clipped to it; children are the spans of the same op whose
/// `parent` equals its name.
std::map<std::string, SpanTimes> ReduceSpans(std::vector<BenchSpan> all);

/// Writes spans as JSON lines, keeping every op whose id is a multiple of
/// the stride that holds the file to about `max_spans` lines.
bool WriteSpans(const std::string& path, const std::vector<BenchSpan>& all,
                std::size_t max_spans);

// ------------------------------------------------------------------ result

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one pass of a workload measured, and whether its outputs were right.
struct RunResult {
  bool correct = true;
  std::vector<std::string> errors;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void Fail(std::string why);
  void Add(std::string name, double value, std::string unit);
  const Metric* Find(const std::string& name) const;
};

/// The last line the benchmark prints:
/// {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
std::string ResultLine(const RunResult& result,
                       const std::vector<Metric>& metrics);

/// getrusage max RSS of this process, in MB.
double PeakRssMb();

/// CPUs this process may run on (what `nproc` prints).
int Nproc();

/// Threads alive in this process (/proc/self/task), -1 when unknown.
int LiveThreads();

}  // namespace metrobench

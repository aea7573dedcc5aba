#pragma once

// Lightweight metrics: named monotonic counters.
//
// A subsystem that exports event counts by name (the broker cluster, the
// DFS) keeps them in a `MetricsRegistry`, so benches can read one counter by
// its dotted name or print them all with `Report()`.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "util/lock_ranks.h"
#include "util/sync.h"

namespace metro {

/// Monotonically increasing counter.
class Counter {
 public:
  void Increment(std::int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Named collection of counters shared across a subsystem.
///
/// Lookup lazily creates the counter; returned references stay valid for the
/// registry's lifetime.
class MetricsRegistry {
 public:
  Counter& GetCounter(const std::string& name) METRO_EXCLUDES(mu_);

  /// Multi-line human-readable dump (`name = value`), sorted by name.
  std::string Report() const METRO_EXCLUDES(mu_);

 private:
  mutable Mutex mu_{lockrank::kUtilMetricsRegistry, "util.metrics.registry"};
  std::map<std::string, std::unique_ptr<Counter>> counters_
      METRO_GUARDED_BY(mu_);
};

}  // namespace metro

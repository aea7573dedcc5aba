#pragma once

// Composable resilience policies shared by every hot path that can fail
// transiently: retry with exponential backoff + jitter, circuit breaking
// with cool-down probes, and deadline budgets. All time flows through a
// `Clock&` so the same policies run deterministically on `SimClock` in the
// chaos benches and against wall time in the threaded pipeline.
//
// The failure model (see DESIGN.md "Failure model & degradation semantics"):
// `kUnavailable` and `kDeadlineExceeded` are retryable — a node may come
// back, a queue may drain. Everything else is terminal for the attempted
// operation and must surface to the caller immediately.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>

#include "util/clock.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/lock_ranks.h"
#include "util/sync.h"

namespace metro::resilience {

/// True for transient codes where a later retry may succeed.
inline bool IsRetryable(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kDeadlineExceeded;
}
inline bool IsRetryable(const Status& status) {
  return IsRetryable(status.code());
}

/// Tuning for `RetryPolicy`.
struct RetryConfig {
  int max_attempts = 4;                      ///< total tries, including the first
  TimeNs initial_backoff = kMillisecond;     ///< sleep before the 2nd attempt
  TimeNs max_backoff = 250 * kMillisecond;   ///< backoff growth ceiling
  double multiplier = 2.0;                   ///< exponential growth factor
  double jitter = 0.2;                       ///< +/- fraction of the backoff
  TimeNs deadline = 0;                       ///< total budget; 0 = unbounded
  /// Opt-in: also retry kResourceExhausted. Off by default — backpressure is
  /// a *signal*, and a hot producer retrying into a full partition just adds
  /// load. Edge agents that would otherwise drop data (their channel is the
  /// loss) turn this on and lean on the backoff to wait out the backlog.
  bool retry_resource_exhausted = false;
};

/// Deadline-aware exponential backoff with jitter.
///
/// Not thread-safe: each retrying call site owns its policy (they are cheap;
/// the only state is the rng and config).
class RetryPolicy {
 public:
  RetryPolicy(RetryConfig config, Clock& clock, std::uint64_t seed = 17)
      : config_(config), clock_(&clock), rng_(seed) {}

  const RetryConfig& config() const { return config_; }

  /// Jittered backoff before attempt `attempt` (1-based count of failures so
  /// far); exposed so simulator-driven callers can schedule the wait instead
  /// of sleeping.
  TimeNs BackoffFor(int attempt) {
    double backoff = double(config_.initial_backoff);
    for (int i = 1; i < attempt; ++i) backoff *= config_.multiplier;
    backoff = std::min(backoff, double(config_.max_backoff));
    const double spread = rng_.UniformDouble(-config_.jitter, config_.jitter);
    return std::max<TimeNs>(0, TimeNs(backoff * (1.0 + spread)));
  }

  /// Runs `fn` (returning `Status` or `Result<T>`) until it succeeds, fails
  /// terminally, exhausts `max_attempts`, or would overrun `deadline`.
  /// Sleeps on the policy's clock between attempts. When the budget expires
  /// mid-retry the last transient error is returned (not a synthesized
  /// deadline error), so callers see the real cause.
  template <typename Fn>
  auto Run(Fn&& fn) -> decltype(fn()) {
    const TimeNs start = clock_->Now();
    auto result = fn();
    for (int attempt = 1; attempt < config_.max_attempts; ++attempt) {
      if (result.ok()) return result;
      const Status status = StatusOf(result);
      const bool retryable =
          IsRetryable(status) ||
          (config_.retry_resource_exhausted &&
           status.code() == StatusCode::kResourceExhausted);
      if (!retryable) return result;
      const TimeNs backoff = BackoffFor(attempt);
      if (config_.deadline > 0 &&
          clock_->Now() + backoff - start >= config_.deadline) {
        return result;  // budget would expire before the next attempt
      }
      clock_->SleepFor(backoff);
      ++retries_;
      result = fn();
    }
    return result;
  }

  /// Retries performed across all `Run` calls (for metrics plumbing).
  std::int64_t retries() const { return retries_; }

 private:
  static const Status& StatusOf(const Status& s) { return s; }
  template <typename T>
  static Status StatusOf(const Result<T>& r) { return r.status(); }

  RetryConfig config_;
  Clock* clock_;
  Rng rng_;
  std::int64_t retries_ = 0;
};

/// Tuning for `CircuitBreaker`.
struct BreakerConfig {
  int failure_threshold = 5;            ///< consecutive failures to trip open
  TimeNs cooldown = 500 * kMillisecond; ///< open -> half-open delay
  int half_open_probes = 1;             ///< successes needed to close again
};

/// Classic closed / open / half-open circuit breaker.
///
/// Closed passes everything through and counts consecutive failures; at the
/// threshold it opens and rejects fast. After `cooldown` it lets a limited
/// number of probe calls through (half-open); enough successes close it,
/// any failure re-opens it and restarts the cool-down. Thread-safe.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  /// Observes state transitions (tracing/metrics hook): `listener(from, to)`
  /// runs after the transition, outside the breaker's lock.
  using StateListener = std::function<void(State from, State to)>;

  CircuitBreaker(BreakerConfig config, Clock& clock)
      : config_(config), clock_(&clock) {}

  /// Registers the transition listener, replacing any previous one. The
  /// listener must not call back into the breaker's mutating methods.
  void SetStateListener(StateListener listener) METRO_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    listener_ = std::move(listener);
  }

  /// True when a call may proceed; false is a fast rejection (circuit open).
  /// Transitions open -> half-open when the cool-down has elapsed.
  bool Allow() METRO_EXCLUDES(mu_) {
    Transition transition;
    bool allowed = false;
    {
      MutexLock lock(mu_);
      switch (state_) {
        case State::kClosed:
          allowed = true;
          break;
        case State::kOpen:
          if (clock_->Now() - opened_at_ >= config_.cooldown) {
            transition = SetState(State::kHalfOpen);
            half_open_inflight_ = 1;
            half_open_successes_ = 0;
            allowed = true;
          } else {
            ++rejected_;
          }
          break;
        case State::kHalfOpen:
          if (half_open_inflight_ < config_.half_open_probes) {
            ++half_open_inflight_;
            allowed = true;
          } else {
            ++rejected_;
          }
          break;
      }
    }
    Notify(transition);
    return allowed;
  }

  void RecordSuccess() METRO_EXCLUDES(mu_) {
    Transition transition;
    {
      MutexLock lock(mu_);
      if (state_ == State::kHalfOpen) {
        if (++half_open_successes_ >= config_.half_open_probes) {
          transition = SetState(State::kClosed);
          consecutive_failures_ = 0;
        }
      } else {
        consecutive_failures_ = 0;
      }
    }
    Notify(transition);
  }

  void RecordFailure() METRO_EXCLUDES(mu_) {
    Transition transition;
    {
      MutexLock lock(mu_);
      if (state_ == State::kHalfOpen) {
        transition = Trip();
      } else if (state_ == State::kClosed &&
                 ++consecutive_failures_ >= config_.failure_threshold) {
        transition = Trip();
      }
    }
    Notify(transition);
  }

  /// Wraps `fn`: rejected calls fail with kUnavailable without running,
  /// outcomes are recorded (only retryable failures count against the
  /// breaker — a kNotFound is the caller's problem, not the component's).
  template <typename Fn>
  auto Run(Fn&& fn) -> decltype(fn()) {
    if (!Allow()) {
      return UnavailableError("circuit breaker open");
    }
    auto result = fn();
    if (result.ok()) {
      RecordSuccess();
    } else if (IsRetryable(StatusOfImpl(result))) {
      RecordFailure();
    }
    return result;
  }

  State state() const METRO_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return state_;
  }
  std::int64_t rejected() const METRO_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return rejected_;
  }

 private:
  /// A state change captured under the lock and reported after releasing it,
  /// so the listener can take its own locks (e.g. a span collector's).
  struct Transition {
    bool fired = false;
    State from = State::kClosed;
    State to = State::kClosed;
    StateListener listener;  // copy taken under the lock
  };

  /// Records the change and snapshots the listener.
  Transition SetState(State to) METRO_REQUIRES(mu_) {
    Transition t{true, state_, to, listener_};
    state_ = to;
    return t;
  }

  // Must NOT hold mu_.
  static void Notify(const Transition& t) {
    if (t.fired && t.listener) t.listener(t.from, t.to);
  }

  Transition Trip() METRO_REQUIRES(mu_) {
    Transition t = SetState(State::kOpen);
    opened_at_ = clock_->Now();
    consecutive_failures_ = 0;
    return t;
  }

  static const Status& StatusOfImpl(const Status& s) { return s; }
  template <typename T>
  static Status StatusOfImpl(const Result<T>& r) { return r.status(); }

  BreakerConfig config_;
  Clock* clock_;
  mutable Mutex mu_{lockrank::kResilienceBreaker, "resilience.breaker"};
  State state_ METRO_GUARDED_BY(mu_) = State::kClosed;
  int consecutive_failures_ METRO_GUARDED_BY(mu_) = 0;
  int half_open_inflight_ METRO_GUARDED_BY(mu_) = 0;
  int half_open_successes_ METRO_GUARDED_BY(mu_) = 0;
  TimeNs opened_at_ METRO_GUARDED_BY(mu_) = 0;
  std::int64_t rejected_ METRO_GUARDED_BY(mu_) = 0;
  StateListener listener_ METRO_GUARDED_BY(mu_);
};

/// Human-readable breaker state ("closed", "open", "half-open").
std::string_view BreakerStateName(CircuitBreaker::State state);

}  // namespace metro::resilience

#pragma once

// Consumer wake-up: a per-topic eventcount (the topic's "doorbell").
//
// A consumer that finds nothing to fetch registers a `Waiter`, checks its
// partitions' high-water marks once more, and only then parks. The broker
// rings the topic's doorbell after every high-water-mark advance, but only
// when a sleeper is registered, and it reads the sleeper count under the
// partition lock it already holds for the append. The consumer's re-check
// takes that same lock after registering, so one of the two always sees the
// other: either the re-check finds the record, or the producer finds the
// sleeper and rings. No wake-up is lost and no extra fence is needed. A
// topic nobody sleeps on costs its producers one read of a word they never
// write.
//
// The doorbell lock (`mq.doorbell`) is a leaf: the broker rings only after
// releasing its partition and cluster locks, and a waiter parks holding
// nothing else.

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/clock.h"
#include "util/lock_ranks.h"
#include "util/sync.h"

namespace metro::mq {

class Doorbell {
 public:
  /// One sleeper registration, released on destruction. Construct it
  /// before the re-check: every ring from then on is seen by `Park`.
  class Waiter {
   public:
    explicit Waiter(Doorbell& bell) : bell_(&bell), epoch_(bell.Register()) {}
    ~Waiter() { bell_->sleepers_.fetch_sub(1, std::memory_order_relaxed); }

    Waiter(const Waiter&) = delete;
    Waiter& operator=(const Waiter&) = delete;

    /// Parks until the doorbell rings after this waiter registered, or
    /// until `cap` of wall time passes. True when rung, false on the cap.
    bool Park(TimeNs cap) { return bell_->ParkSince(epoch_, cap); }

   private:
    Doorbell* bell_;
    std::uint64_t epoch_;
  };

  Doorbell() = default;
  Doorbell(const Doorbell&) = delete;
  Doorbell& operator=(const Doorbell&) = delete;

  /// Waiters registered right now.
  int sleepers() const { return sleepers_.load(std::memory_order_relaxed); }

 private:
  friend class BrokerCluster;

  /// Adds a sleeper; returns the epoch a ring will move past.
  std::uint64_t Register() METRO_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    // Relaxed is enough: the re-check that follows releases a
    // partition lock, which publishes this increment to the next producer
    // that takes the lock.
    sleepers_.fetch_add(1, std::memory_order_relaxed);
    return epoch_;
  }

  bool ParkSince(std::uint64_t epoch, TimeNs cap) METRO_EXCLUDES(mu_) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::nanoseconds(cap);
    MutexLock lock(mu_);
    while (epoch_ == epoch && rung_.WaitUntil(mu_, deadline)) {
    }
    return epoch_ != epoch;
  }

  /// Wakes every parked waiter. Called with no broker lock held.
  void Ring() METRO_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      ++epoch_;
    }
    rung_.NotifyAll();
  }

  Mutex mu_{lockrank::kMqDoorbell, "mq.doorbell"};
  CondVar rung_;
  std::uint64_t epoch_ METRO_GUARDED_BY(mu_) = 0;
  std::atomic<int> sleepers_{0};
};

}  // namespace metro::mq

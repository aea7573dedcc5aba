#pragma once

// Annotated synchronization primitives: Clang thread-safety analysis for the
// whole pipeline.
//
// Every mutex-holding module in the tree uses `Mutex` / `MutexLock` /
// `CondVar` instead of the raw std:: types, annotates each guarded field
// with `METRO_GUARDED_BY(mu_)`, and each must-hold-the-lock helper with
// `METRO_REQUIRES(mu_)`. Under Clang with `-DMETRO_THREAD_SAFETY=ON`
// (`-Werror=thread-safety`) the compiler then *proves* the locking
// discipline: a field read outside its mutex, a helper called without its
// lock, or a double acquire is a build error, not a latent race for TSan to
// maybe catch at runtime. On compilers without the attributes (GCC) every
// macro expands to nothing, so the annotated tree builds everywhere. The
// wrappers are thin shims over the std:: primitives with one policy of their
// own: a contended `Mutex` acquisition spins a fixed number of `try_lock`
// rounds before it parks in the kernel (see `Mutex`).
//
// The vocabulary mirrors Clang's attribute set (and Abseil's macro layer):
//
//   METRO_GUARDED_BY(mu)     field may only be touched while `mu` is held
//   METRO_PT_GUARDED_BY(mu)  pointee guarded (the pointer itself is free)
//   METRO_REQUIRES(mu)       caller must already hold `mu`
//   METRO_ACQUIRE(mu)        function acquires `mu` and returns holding it
//   METRO_RELEASE(mu)        function releases `mu`
//   METRO_TRY_ACQUIRE(b, mu) acquires `mu` iff the return value equals `b`
//   METRO_EXCLUDES(mu)       caller must NOT hold `mu` (deadlock guard)
//   METRO_ASSERT_HELD(mu)    runtime claim that `mu` is held (trust point)
//   METRO_ACQUIRED_BEFORE/AFTER(mu)  lock-ordering declaration
//
// See DESIGN.md "Concurrency invariants & static analysis" for the
// per-module lock hierarchy and scripts/check_static.sh for the gate that
// runs the analysis together with clang-tidy and the sanitizer matrix.

#include <chrono>
#include <condition_variable>
#include <mutex>

// Debug-only runtime lock-rank checker (the dynamic half of the hierarchy
// that metrolint v2's static `lockorder` pass enforces; see
// util/lock_ranks.h). On by default in debug builds, compiled out of the
// Mutex hot path entirely under NDEBUG — Release keeps only the two
// passive fields (rank/name) so the Mutex layout never changes with the
// build mode. The lockcheck functions themselves are always defined (they
// are free functions with no callers in Release) so lock_rank_test can
// exercise the checker logic in every build flavor.
#ifndef METRO_LOCK_RANK_CHECK
#ifdef NDEBUG
#define METRO_LOCK_RANK_CHECK 0
#else
#define METRO_LOCK_RANK_CHECK 1
#endif
#endif

#include <atomic>
#include <cstdio>
#include <cstdlib>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define METRO_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef METRO_THREAD_ANNOTATION
#define METRO_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

#define METRO_CAPABILITY(x) METRO_THREAD_ANNOTATION(capability(x))
#define METRO_SCOPED_CAPABILITY METRO_THREAD_ANNOTATION(scoped_lockable)
#define METRO_GUARDED_BY(x) METRO_THREAD_ANNOTATION(guarded_by(x))
#define METRO_PT_GUARDED_BY(x) METRO_THREAD_ANNOTATION(pt_guarded_by(x))
#define METRO_ACQUIRED_BEFORE(...) \
  METRO_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define METRO_ACQUIRED_AFTER(...) \
  METRO_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define METRO_REQUIRES(...) \
  METRO_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define METRO_ACQUIRE(...) \
  METRO_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define METRO_RELEASE(...) \
  METRO_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define METRO_TRY_ACQUIRE(...) \
  METRO_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define METRO_EXCLUDES(...) METRO_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define METRO_ASSERT_HELD(...) \
  METRO_THREAD_ANNOTATION(assert_capability(__VA_ARGS__))
#define METRO_RETURN_CAPABILITY(x) METRO_THREAD_ANNOTATION(lock_returned(x))
#define METRO_NO_THREAD_SAFETY_ANALYSIS \
  METRO_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace metro {

namespace lockcheck {

/// True when the runtime rank checker is compiled into this build. Tests
/// use it to decide whether the inversion death tests can run.
inline constexpr bool kCompiledIn = METRO_LOCK_RANK_CHECK != 0;

/// Process-wide switch so death tests can prove the disabled path is a
/// no-op without rebuilding. Checked per acquisition (relaxed load).
inline std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled{true};
  return enabled;
}
inline void SetEnabled(bool on) {
  EnabledFlag().store(on, std::memory_order_relaxed);
}

struct HeldLock {
  const void* mu;
  int rank;
  const char* name;
};

/// Per-thread stack of currently held ranked locks. Fixed capacity: a
/// thread nesting more than 64 locks has bigger problems; overflow drops
/// entries (checker degrades, never corrupts).
struct HeldStack {
  HeldLock entries[64];
  int size = 0;
};

inline HeldStack& Held() {
  thread_local HeldStack stack;
  return stack;
}

[[noreturn]] inline void DieOnInversion(const HeldStack& s, int rank,
                                        const char* name) {
  std::fprintf(stderr,
               "metro lock-rank inversion: acquiring \"%s\" (rank %d) while "
               "holding:\n",
               name, rank);
  for (int i = s.size - 1; i >= 0; --i) {
    std::fprintf(stderr, "  #%d \"%s\" (rank %d)\n", s.size - 1 - i,
                 s.entries[i].name, s.entries[i].rank);
  }
  std::fprintf(stderr,
               "ranks must strictly increase along acquisition — see "
               "util/lock_ranks.h and DESIGN.md \"Global lock hierarchy\"\n");
  std::abort();
}

/// Called after a successful acquisition. Unranked locks (rank 0) are
/// tracked but never checked; a ranked acquisition must out-rank every
/// ranked lock already held by this thread.
inline void OnAcquire(const void* mu, int rank, const char* name) {
  HeldStack& s = Held();
  if (rank > 0 && EnabledFlag().load(std::memory_order_relaxed)) {
    for (int i = 0; i < s.size; ++i) {
      if (s.entries[i].rank > 0 && s.entries[i].mu != mu &&
          rank <= s.entries[i].rank) {
        DieOnInversion(s, rank, name);
      }
    }
  }
  if (s.size < 64) s.entries[s.size++] = HeldLock{mu, rank, name};
}

/// Called before release. Scans from the top so early-unlock patterns
/// (MutexLock::Unlock mid-scope) remove the right entry.
inline void OnRelease(const void* mu) {
  HeldStack& s = Held();
  for (int i = s.size - 1; i >= 0; --i) {
    if (s.entries[i].mu == mu) {
      for (int j = i; j + 1 < s.size; ++j) s.entries[j] = s.entries[j + 1];
      --s.size;
      return;
    }
  }
}

}  // namespace lockcheck

/// Spin-wait hint: lets a sibling hyperthread run and eases the memory bus
/// while a spinner waits for a lock holder. A no-op where no hint exists.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Annotated exclusive mutex. A wrapper over std::mutex that carries the
/// `capability` attribute so `METRO_GUARDED_BY(mu_)` fields and
/// `METRO_REQUIRES(mu_)` helpers are checkable at compile time.
///
/// Spin, then park: `Lock`/`lock` try `try_lock` up to `kSpinRounds` times,
/// with a `CpuRelax` between tries, before falling back to the blocking
/// std::mutex lock. The tree's critical sections are short (a broker
/// partition append is ~1-2 us), so a waiter that spins usually gets the
/// lock without paying a futex sleep and wake. The bound is a fixed
/// constant, not a knob: spin counts from 50 to 1000 performed alike on
/// the one 4-vCPU Xeon they were measured on, so there was nothing to tune.
/// The bound counts rounds, not time; a round's wall time depends on the
/// CPU's `pause` latency. It caps how many rounds a spinner wastes when
/// threads outnumber CPUs and the holder is descheduled. `TryLock` stays a
/// single attempt.
///
/// Every long-lived mutex declares its place in the global lock hierarchy:
/// `Mutex mu_{lockrank::kStoreLsm, "store.lsm"};` (util/lock_ranks.h). The
/// rank/name fields are always present — Release builds carry them as two
/// passive words so the layout matches debug builds — and in debug builds
/// every acquisition is checked against the thread's held-lock stack
/// (lockcheck::OnAcquire), aborting on a rank inversion.
///
/// Also satisfies BasicLockable (lowercase lock/unlock) so `CondVar` can
/// suspend on it directly.
class METRO_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(int rank, const char* name) : rank_(rank), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() METRO_ACQUIRE() {
    SpinThenLock();
    NoteAcquire();
  }
  void Unlock() METRO_RELEASE() {
    NoteRelease();
    mu_.unlock();
  }
  bool TryLock() METRO_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    NoteAcquire();
    return true;
  }

  // BasicLockable spelling (for std::condition_variable_any and generic
  // code); same semantics, same annotations.
  void lock() METRO_ACQUIRE() {
    SpinThenLock();
    NoteAcquire();
  }
  void unlock() METRO_RELEASE() {
    NoteRelease();
    mu_.unlock();
  }

  /// Late rank assignment for mutexes that cannot be constructed in place
  /// with one (e.g. `std::vector<Mutex>` stripes); call before first use.
  void SetRank(int rank, const char* name) {
    rank_ = rank;
    name_ = name;
  }

  int rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  /// `try_lock` rounds a contended acquisition spins before it parks.
  static constexpr int kSpinRounds = 200;

  void SpinThenLock() {
    for (int i = 0; i < kSpinRounds; ++i) {
      if (mu_.try_lock()) return;
      CpuRelax();
    }
    mu_.lock();
  }

#if METRO_LOCK_RANK_CHECK
  void NoteAcquire() { lockcheck::OnAcquire(this, rank_, name_); }
  void NoteRelease() { lockcheck::OnRelease(this); }
#else
  void NoteAcquire() {}
  void NoteRelease() {}
#endif

  std::mutex mu_;
  int rank_ = 0;
  const char* name_ = "";
};

/// RAII lock over an annotated `Mutex` (the std::lock_guard/unique_lock
/// replacement). Supports releasing early (`Unlock`) and re-acquiring
/// (`Lock`) for unlock-before-notify and compute-outside-the-lock patterns;
/// the destructor releases only if still held.
class METRO_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) METRO_ACQUIRE(mu) : mu_(&mu), held_(true) {
    mu_->Lock();
  }
  ~MutexLock() METRO_RELEASE() {
    if (held_) mu_->Unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases before scope exit (e.g. to notify a CondVar unlocked).
  void Unlock() METRO_RELEASE() {
    mu_->Unlock();
    held_ = false;
  }

  /// Re-acquires after an early Unlock.
  void Lock() METRO_ACQUIRE() {
    mu_->Lock();
    held_ = true;
  }

 private:
  Mutex* mu_;
  bool held_;
};

/// Condition variable bound to an annotated `Mutex`.
///
/// `Wait` declares `METRO_REQUIRES(mu)`: the analysis checks that callers
/// hold the mutex across the wait (it is released and re-acquired inside,
/// invisible to the caller — exactly the capability contract).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and suspends; re-acquires before returning.
  /// Callers loop on their predicate as with any condition variable.
  void Wait(Mutex& mu) METRO_REQUIRES(mu) { cv_.wait(mu); }

  /// `Wait`, giving up at `deadline`. False once the deadline has passed; a
  /// true return may still be spurious.
  bool WaitUntil(Mutex& mu, std::chrono::steady_clock::time_point deadline)
      METRO_REQUIRES(mu) {
    return cv_.wait_until(mu, deadline) == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace metro

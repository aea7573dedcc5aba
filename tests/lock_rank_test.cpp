// Death tests for the runtime lock-rank checker (util/sync.h), the dynamic
// half of the hierarchy that metrolint v2's static `lockorder` pass proves.
// The checker keeps a thread-local stack of held ranked locks and aborts on
// any acquisition whose rank does not exceed every ranked lock already held.
//
// Two layers of coverage:
//   - The lockcheck:: functions are always compiled (no callers in Release),
//     so the abort logic is death-tested directly in EVERY build flavor.
//   - The Mutex hook integration (real Lock() calls feeding the checker) is
//     tested only where the hooks are compiled in (lockcheck::kCompiledIn,
//     i.e. non-NDEBUG builds); Release covers the compiled-out path instead.
//
// Under TSan the tests that take real mutexes in deliberately inverted
// order are skipped: TSan's own deadlock detector (correctly) reports the
// seeded inversion as a lock-order cycle, and stack-allocated mutexes from
// different tests reuse addresses, so even the checker-disabled inversion
// trips it. The direct lockcheck:: tests take no real locks and keep the
// abort logic covered there.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "util/lock_ranks.h"
#include "util/sync.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define METRO_LOCK_RANK_TEST_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define METRO_LOCK_RANK_TEST_TSAN 1
#endif

namespace metro {
namespace {

#ifdef METRO_LOCK_RANK_TEST_TSAN
constexpr bool kRealInversionsSafe = false;
#else
constexpr bool kRealInversionsSafe = true;
#endif

// ----------------------------------------------- checker logic (any build)

TEST(LockRankDeathTest, InversionAborts) {
  int hi = 0, lo = 0;
  EXPECT_DEATH(
      {
        lockcheck::OnAcquire(&hi, 20, "test.hi");
        lockcheck::OnAcquire(&lo, 10, "test.lo");  // rank drops: abort
      },
      "lock-rank inversion: acquiring \"test.lo\" \\(rank 10\\)");
}

TEST(LockRankDeathTest, AbortMessageListsBothStacks) {
  int hi = 0, lo = 0;
  EXPECT_DEATH(
      {
        lockcheck::OnAcquire(&hi, 20, "test.hi");
        lockcheck::OnAcquire(&lo, 10, "test.lo");
      },
      "while "
      "holding");
  EXPECT_DEATH(
      {
        lockcheck::OnAcquire(&hi, 20, "test.hi");
        lockcheck::OnAcquire(&lo, 10, "test.lo");
      },
      "\"test.hi\" \\(rank 20\\)");
}

TEST(LockRankDeathTest, EqualRankDifferentAddressAborts) {
  int a = 0, b = 0;
  EXPECT_DEATH(
      {
        lockcheck::OnAcquire(&a, 20, "test.a");
        lockcheck::OnAcquire(&b, 20, "test.b");  // order undeclared: abort
      },
      "lock-rank inversion");
}

TEST(LockRank, CheckerLogicAcceptsIncreasingRanks) {
  int lo = 0, hi = 0;
  lockcheck::OnAcquire(&lo, 10, "test.lo");
  lockcheck::OnAcquire(&hi, 20, "test.hi");
  lockcheck::OnRelease(&hi);
  lockcheck::OnRelease(&lo);
  SUCCEED();
}

TEST(LockRank, CheckerLogicEarlyReleaseClearsHeldEntry) {
  int lo = 0, hi = 0;
  lockcheck::OnAcquire(&hi, 20, "test.hi");
  lockcheck::OnRelease(&hi);
  lockcheck::OnAcquire(&lo, 10, "test.lo");  // hi no longer held: fine
  lockcheck::OnRelease(&lo);
  SUCCEED();
}

TEST(LockRank, CheckerLogicIgnoresUnranked) {
  int ranked = 0, scratch = 0;
  lockcheck::OnAcquire(&ranked, 80, "test.ranked");
  lockcheck::OnAcquire(&scratch, 0, "");  // rank 0 opts out of the hierarchy
  lockcheck::OnRelease(&scratch);
  lockcheck::OnRelease(&ranked);
  SUCCEED();
}

// ------------------------------------------- Mutex integration (hooks in)

TEST(LockRank, CorrectOrderPasses) {
  Mutex lo{lockrank::kMqCluster, "test.lo"};
  Mutex hi{lockrank::kUtilQueue, "test.hi"};
  MutexLock a(lo);
  MutexLock b(hi);  // strictly increasing rank: fine
  SUCCEED();
}

TEST(LockRank, SequentialReacquirePasses) {
  Mutex lo{lockrank::kMqCluster, "test.lo"};
  Mutex hi{lockrank::kUtilQueue, "test.hi"};
  {
    MutexLock a(lo);
  }
  {
    MutexLock b(hi);
  }
  {
    MutexLock a(lo);  // held sets are per-nesting, not per-history
  }
  SUCCEED();
}

TEST(LockRank, EarlyUnlockReleasesHeldEntry) {
  Mutex lo{lockrank::kMqCluster, "test.lo"};
  Mutex hi{lockrank::kUtilQueue, "test.hi"};
  MutexLock b(hi);
  b.Unlock();
  MutexLock a(lo);  // hi was released early: no inversion
  SUCCEED();
}

TEST(LockRank, UnrankedLocksAreNeverChecked) {
  Mutex ranked{lockrank::kUtilQueue, "test.ranked"};
  Mutex scratch;  // rank 0: test/bench locks opt out of the hierarchy
  MutexLock a(ranked);
  MutexLock b(scratch);
  SUCCEED();
}

// Runs `acquire` while another thread holds `mu`. The holder keeps it for
// 10 ms after `acquire` starts, far longer than Mutex's spin bound, so the
// acquisition spins, parks and only then succeeds.
template <typename Acquire>
void AcquireAfterContention(Mutex& mu, Acquire acquire) {
  std::atomic<bool> held{false};
  std::atomic<bool> waiting{false};
  std::thread holder([&] {
    MutexLock lock(mu);
    held.store(true, std::memory_order_release);
    while (!waiting.load(std::memory_order_acquire)) std::this_thread::yield();
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(10);
    while (std::chrono::steady_clock::now() < until) std::this_thread::yield();
  });
  while (!held.load(std::memory_order_acquire)) std::this_thread::yield();
  waiting.store(true, std::memory_order_release);
  acquire();
  holder.join();
}

TEST(LockRank, ContendedAcquisitionPushesOneHeldEntry) {
  Mutex mu{lockrank::kMqPartition, "test.contended"};
  const int before = lockcheck::Held().size;
  int while_held = -1;
  lockcheck::HeldLock top{};
  AcquireAfterContention(mu, [&] {
    MutexLock lock(mu);
    while_held = lockcheck::Held().size;
    if (while_held > 0) top = lockcheck::Held().entries[while_held - 1];
  });
  // Spinning and parking happen before the hook: one acquisition, one
  // entry, however many try_lock rounds it took.
  if (lockcheck::kCompiledIn) {
    EXPECT_EQ(while_held, before + 1);
    EXPECT_EQ(top.mu, &mu);
    EXPECT_EQ(top.rank, lockrank::kMqPartition);
  } else {
    EXPECT_EQ(while_held, before);
  }
  EXPECT_EQ(lockcheck::Held().size, before);
}

TEST(LockRankDeathTest, InversionAfterContendedAcquisitionAborts) {
  if (!lockcheck::kCompiledIn) GTEST_SKIP() << "checker compiled out";
  if (!kRealInversionsSafe) GTEST_SKIP() << "TSan flags seeded inversions";
  Mutex lo{lockrank::kMqCluster, "test.lo"};
  Mutex hi{lockrank::kUtilQueue, "test.hi"};
  EXPECT_DEATH(
      {
        AcquireAfterContention(hi, [&] {
          MutexLock b(hi);  // spun, parked, then acquired
          MutexLock a(lo);  // rank drops while hi is held
        });
      },
      "lock-rank inversion: acquiring \"test.lo\"");
}

TEST(LockRankDeathTest, MutexInversionAborts) {
  if (!lockcheck::kCompiledIn) GTEST_SKIP() << "checker compiled out";
  if (!kRealInversionsSafe) GTEST_SKIP() << "TSan flags seeded inversions";
  Mutex lo{lockrank::kMqCluster, "test.lo"};
  Mutex hi{lockrank::kUtilQueue, "test.hi"};
  EXPECT_DEATH(
      {
        MutexLock b(hi);
        MutexLock a(lo);  // rank drops while hi is held
      },
      "lock-rank inversion");
}

TEST(LockRankDeathTest, MutexEqualRankAborts) {
  if (!lockcheck::kCompiledIn) GTEST_SKIP() << "checker compiled out";
  if (!kRealInversionsSafe) GTEST_SKIP() << "TSan flags seeded inversions";
  Mutex a{lockrank::kUtilQueue, "test.a"};
  Mutex b{lockrank::kUtilQueue, "test.b"};
  EXPECT_DEATH(
      {
        MutexLock la(a);
        MutexLock lb(b);  // equal rank: order between them is undeclared
      },
      "lock-rank inversion");
}

#if METRO_LOCK_RANK_CHECK
TEST(LockRank, DisabledCheckerIsANoOp) {
  if (!kRealInversionsSafe) GTEST_SKIP() << "TSan flags seeded inversions";
  // The runtime kill-switch mirrors what a Release (NDEBUG) build compiles
  // out entirely: with the checker off, an inversion must NOT abort.
  lockcheck::SetEnabled(false);
  {
    Mutex lo{lockrank::kMqCluster, "test.lo"};
    Mutex hi{lockrank::kUtilQueue, "test.hi"};
    MutexLock b(hi);
    MutexLock a(lo);  // inversion, deliberately unreported
  }
  lockcheck::SetEnabled(true);
  SUCCEED();
}
#else
TEST(LockRank, ReleaseBuildCompilesCheckerOut) {
  static_assert(!lockcheck::kCompiledIn);
  if (!kRealInversionsSafe) GTEST_SKIP() << "TSan flags seeded inversions";
  // No per-acquisition hook: Lock/Unlock are the plain std::mutex
  // operations plus two passive fields.
  Mutex lo{lockrank::kMqCluster, "test.lo"};
  Mutex hi{lockrank::kUtilQueue, "test.hi"};
  MutexLock b(hi);
  MutexLock a(lo);  // would abort in a debug build
  SUCCEED();
}
#endif

}  // namespace
}  // namespace metro

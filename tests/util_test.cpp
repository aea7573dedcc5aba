// Unit tests for the util foundation: Status/Result, Rng, clocks, queues,
// thread pool, the spin-then-park mutex, metrics, and byte serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "util/bytes.h"
#include "util/clock.h"
#include "util/metrics.h"
#include "util/queue.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/sync.h"
#include "util/thread_pool.h"

namespace metro {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = NotFoundError("key missing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "key missing");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: key missing");
}

TEST(StatusTest, EveryFactoryProducesDistinctCode) {
  const std::vector<Status> all = {
      NotFoundError(""),     AlreadyExistsError(""),  InvalidArgumentError(""),
      FailedPreconditionError(""), OutOfRangeError(""), UnavailableError(""),
      DeadlineExceededError(""), ResourceExhaustedError(""), CorruptionError(""),
      PermissionDeniedError(""), UnimplementedError(""), AbortedError(""),
      InternalError("")};
  std::set<StatusCode> codes;
  for (const Status& s : all) codes.insert(s.code());
  EXPECT_EQ(codes.size(), all.size());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.status(), Status::Ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFoundError("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return InvalidArgumentError("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  METRO_ASSIGN_OR_RETURN(const int h, Half(x));
  METRO_ASSIGN_OR_RETURN(const int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_EQ(Quarter(6).status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(double(hits) / n, 0.3, 0.02);
}

TEST(RngTest, PoissonMeanMatches) {
  Rng rng(17);
  double sum = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) sum += rng.Poisson(3.5);
  EXPECT_NEAR(sum / n, 3.5, 0.1);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(19);
  double sum = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, ZipfRankZeroMostFrequent) {
  Rng rng(23);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20'000; ++i) ++counts[rng.Zipf(10, 1.2)];
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[5]);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(29);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30'000; ++i) ++counts[rng.Categorical({1.0, 2.0, 7.0})];
  EXPECT_NEAR(double(counts[2]) / 30'000, 0.7, 0.02);
  EXPECT_NEAR(double(counts[0]) / 30'000, 0.1, 0.02);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkIndependentStreams) {
  Rng parent(37);
  Rng child = parent.Fork();
  EXPECT_NE(parent.NextU64(), child.NextU64());
}

// ---------------------------------------------------------------- Clock

TEST(ClockTest, SimClockAdvances) {
  SimClock clock(100);
  EXPECT_EQ(clock.Now(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.Now(), 150);
  clock.AdvanceTo(120);  // never goes backwards
  EXPECT_EQ(clock.Now(), 150);
  clock.AdvanceTo(200);
  EXPECT_EQ(clock.Now(), 200);
  clock.SleepFor(10);
  EXPECT_EQ(clock.Now(), 210);
}

TEST(ClockTest, WallClockMonotone) {
  WallClock& clock = WallClock::Instance();
  const TimeNs a = clock.Now();
  const TimeNs b = clock.Now();
  EXPECT_LE(a, b);
}

TEST(ClockTest, StopwatchMeasuresSleep) {
  Stopwatch sw;
  WallClock::Instance().SleepFor(2 * kMillisecond);
  EXPECT_GE(sw.ElapsedNs(), 2 * kMillisecond);
}

// ---------------------------------------------------------------- Queue

TEST(QueueTest, FifoOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.Push(i).ok());
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.Pop().value(), i);
}

TEST(QueueTest, TryPushFullReturnsResourceExhausted) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1).ok());
  EXPECT_TRUE(q.TryPush(2).ok());
  EXPECT_EQ(q.TryPush(3).code(), StatusCode::kResourceExhausted);
}

TEST(QueueTest, CloseDrainsThenReturnsNullopt) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.Push(1).ok());
  ASSERT_TRUE(q.Push(2).ok());
  q.Close();
  EXPECT_EQ(q.Push(3).code(), StatusCode::kAborted);
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(QueueTest, BlockedConsumerWokenByProducer) {
  BoundedQueue<int> q(1);
  std::thread consumer([&] { EXPECT_EQ(q.Pop().value(), 99); });
  WallClock::Instance().SleepFor(kMillisecond);
  ASSERT_TRUE(q.Push(99).ok());
  consumer.join();
}

TEST(QueueTest, ConcurrentProducersConsumersConserveItems) {
  BoundedQueue<int> q(16);
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  std::atomic<std::int64_t> sum{0};
  std::atomic<int> received{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i).ok());
      }
    });
  }
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.Pop()) {
        sum.fetch_add(*v);
        received.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[std::size_t(p)].join();
  q.Close();
  for (std::size_t t = kProducers; t < threads.size(); ++t) threads[t].join();

  const std::int64_t n = kProducers * kPerProducer;
  EXPECT_EQ(received.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(QueueTest, TryPopDistinguishesEmptyFromClosed) {
  BoundedQueue<int> q(4);
  int out = 0;
  // Open and momentarily empty: a poller should keep polling.
  EXPECT_EQ(q.TryPop(out), TryPopResult::kEmpty);
  ASSERT_TRUE(q.Push(7).ok());
  ASSERT_TRUE(q.Push(8).ok());
  EXPECT_EQ(q.TryPop(out), TryPopResult::kItem);
  EXPECT_EQ(out, 7);
  // Closed with a backlog: drain to completion, then terminate.
  q.Close();
  EXPECT_EQ(q.TryPop(out), TryPopResult::kItem);
  EXPECT_EQ(out, 8);
  EXPECT_EQ(q.TryPop(out), TryPopResult::kClosed);
  EXPECT_EQ(q.TryPop(out), TryPopResult::kClosed);  // stays terminal
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&count] { count.fetch_add(1); }).ok());
  }
  pool.Shutdown();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, AsyncReturnsValue) {
  ThreadPool pool(2);
  auto fut = pool.Async([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPoolTest, SubmitAfterShutdownFails) {
  ThreadPool pool(1);
  pool.Shutdown();
  EXPECT_EQ(pool.Submit([] {}).code(), StatusCode::kAborted);
}

TEST(ThreadPoolTest, SurvivesThrowingTasks) {
  // Regression: an uncaught exception on a jthread worker terminates the
  // whole process. The pool must contain it, count it, and keep the worker
  // draining the queue.
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(pool.Submit([&ran, i] {
      if (i % 5 == 0) throw std::runtime_error("task failed");
      ran.fetch_add(1);
    }).ok());
  }
  ASSERT_TRUE(pool.Submit([] { throw 42; }).ok());  // non-std exception too
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 40);
  EXPECT_EQ(pool.task_exceptions(), 11);
}

// ---------------------------------------------------------------- Mutex

// A counter and a cache line of payload behind one Mutex. Every increment
// also rewrites the line, so a lost update or a torn critical section shows
// up as a count or a line that disagrees with the number of acquisitions.
struct Contended {
  Mutex counter_mu;
  std::int64_t count METRO_GUARDED_BY(counter_mu) = 0;
  std::int64_t line[8] METRO_GUARDED_BY(counter_mu) = {};
};

// `threads` threads, released together, each take the lock `per_thread`
// times. With few threads per CPU waiters mostly win while spinning; with
// more threads than CPUs, holders get descheduled and waiters park.
void RunContendedIncrements(int threads, int per_thread) {
  Contended c;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < per_thread; ++i) {
        MutexLock lock(c.counter_mu);
        ++c.count;
        for (auto& word : c.line) word = c.count;
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  MutexLock lock(c.counter_mu);
  const std::int64_t total = std::int64_t(threads) * per_thread;
  EXPECT_EQ(c.count, total);
  for (auto word : c.line) EXPECT_EQ(word, total);
}

TEST(MutexTest, ContendedIncrementsAreExactAtFourThreads) {
  RunContendedIncrements(4, 20000);
}

TEST(MutexTest, ContendedIncrementsAreExactWithThreadsOverCpus) {
  const int cpus = int(std::max(1u, std::thread::hardware_concurrency()));
  RunContendedIncrements(2 * cpus, 10000);
}

TEST(MutexTest, TryLockFailsAtOnceWhileHeld) {
  // The holder does not release until the main thread says so, so a TryLock
  // that blocked or waited for the holder would hang this test.
  Mutex mu;
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    MutexLock lock(mu);
    held.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!held.load(std::memory_order_acquire)) std::this_thread::yield();
  int acquired_while_held = 0;
  for (int i = 0; i < 100; ++i) {
    if (mu.TryLock()) {
      ++acquired_while_held;
      mu.Unlock();
    }
  }
  release.store(true, std::memory_order_release);
  holder.join();
  EXPECT_EQ(acquired_while_held, 0);
  bool acquired_when_free = false;
  if (mu.TryLock()) {
    acquired_when_free = true;
    mu.Unlock();
  }
  EXPECT_TRUE(acquired_when_free);
}

TEST(MutexTest, CondVarPingPongHandsOffUnderContention) {
  // Two players alternate turns through WaitUntil while two bystanders
  // hammer the same mutex, so every re-acquisition inside the wait races
  // with spinners.
  constexpr int kRounds = 2000;
  struct Table {
    Mutex table_mu;
    CondVar cv;
    int turn METRO_GUARDED_BY(table_mu) = 0;
    int moves METRO_GUARDED_BY(table_mu) = 0;
    bool timed_out METRO_GUARDED_BY(table_mu) = false;
    std::int64_t noise METRO_GUARDED_BY(table_mu) = 0;
  } t;
  std::atomic<bool> done{false};

  auto player = [&](int me) {
    for (int r = 0; r < kRounds; ++r) {
      MutexLock lock(t.table_mu);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (t.turn != me && !t.timed_out) {
        if (!t.cv.WaitUntil(t.table_mu, deadline) && t.turn != me) {
          t.timed_out = true;
        }
      }
      if (t.timed_out) break;
      ++t.moves;
      t.turn = 1 - me;
      t.cv.NotifyAll();
    }
  };
  std::vector<std::thread> bystanders;
  for (int b = 0; b < 2; ++b) {
    bystanders.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        MutexLock lock(t.table_mu);
        ++t.noise;
      }
    });
  }
  std::thread ping(player, 0);
  std::thread pong(player, 1);
  ping.join();
  pong.join();
  done.store(true, std::memory_order_relaxed);
  for (auto& b : bystanders) b.join();

  MutexLock lock(t.table_mu);
  EXPECT_FALSE(t.timed_out);
  EXPECT_EQ(t.moves, 2 * kRounds);
  EXPECT_EQ(t.turn, 0);
}

// ---------------------------------------------------------------- Metrics

TEST(MetricsTest, CounterAccumulates) {
  Counter c;
  c.Increment();
  c.Increment(10);
  EXPECT_EQ(c.value(), 11);
}

TEST(MetricsTest, RegistryReturnsSameInstance) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("x");
  a.Increment(5);
  EXPECT_EQ(registry.GetCounter("x").value(), 5);
  registry.GetCounter("a").Increment();
  const std::string report = registry.Report();
  EXPECT_EQ(report, "a = 1\nx = 5\n");  // sorted by name
}

// ---------------------------------------------------------------- Bytes

TEST(BytesTest, FixedWidthRoundTrip) {
  ByteWriter w;
  w.PutU8(0xab);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutI64(-42);
  w.PutF32(3.5f);
  w.PutF64(-2.25);
  ByteReader r(w.data());
  EXPECT_EQ(r.GetU8().value(), 0xab);
  EXPECT_EQ(r.GetU32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.GetU64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.GetI64().value(), -42);
  EXPECT_EQ(r.GetF32().value(), 3.5f);
  EXPECT_EQ(r.GetF64().value(), -2.25);
  EXPECT_TRUE(r.empty());
}

TEST(BytesTest, VarintRoundTripBoundaries) {
  const std::vector<std::uint64_t> values = {0, 1,   127,        128,
                                             16383, 16384, UINT64_MAX};
  ByteWriter w;
  for (const auto v : values) w.PutVarint(v);
  ByteReader r(w.data());
  for (const auto v : values) EXPECT_EQ(r.GetVarint().value(), v);
}

TEST(BytesTest, StringRoundTrip) {
  ByteWriter w;
  w.PutString("hello");
  w.PutString("");
  w.PutString(std::string(1000, 'x'));
  ByteReader r(w.data());
  EXPECT_EQ(r.GetString().value(), "hello");
  EXPECT_EQ(r.GetString().value(), "");
  EXPECT_EQ(r.GetString().value().size(), 1000u);
}

TEST(BytesTest, TruncatedReadsFailWithCorruption) {
  ByteWriter w;
  w.PutU32(7);
  ByteReader r(std::string_view(w.data()).substr(0, 2));
  EXPECT_EQ(r.GetU32().status().code(), StatusCode::kCorruption);
}

TEST(BytesTest, TruncatedStringBodyFails) {
  ByteWriter w;
  w.PutVarint(100);  // claims 100 bytes
  w.PutRaw("short");
  ByteReader r(w.data());
  EXPECT_EQ(r.GetString().status().code(), StatusCode::kCorruption);
}

TEST(BytesTest, Crc32cKnownVector) {
  // RFC 3720 test vector: 32 zero bytes.
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8a9136aa);
  // "123456789" -> 0xe3069283
  EXPECT_EQ(Crc32c("123456789"), 0xe3069283);
}

TEST(BytesTest, Fnv1aDistinctInputsDiffer) {
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
  EXPECT_EQ(Fnv1a64("same"), Fnv1a64("same"));
}

}  // namespace
}  // namespace metro

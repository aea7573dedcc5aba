#pragma once

// Fixed-size worker pool used by the dataflow engine and analysis servers.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "util/queue.h"

namespace metro {

/// Fixed set of worker threads draining a shared task queue.
///
/// Tasks submitted after Shutdown() are rejected. The destructor joins all
/// workers after draining outstanding tasks. A task that throws is counted
/// in `task_exceptions()` and logged; the worker survives it.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; kAborted after shutdown.
  Status Submit(std::function<void()> task);

  /// Enqueues a callable and exposes its result as a future.
  template <typename F, typename R = std::invoke_result_t<F>>
  std::future<R> Async(F&& f) {
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    const Status st = Submit([task] { (*task)(); });
    if (!st.ok()) {
      // Surface the rejection through the future rather than losing it.
      task->reset();
      std::promise<R> p;
      p.set_exception(std::make_exception_ptr(
          std::runtime_error("ThreadPool shut down")));
      return p.get_future();
    }
    return fut;
  }

  /// Stops accepting tasks, drains the queue, and joins workers. Idempotent.
  void Shutdown();

  std::size_t num_threads() const { return workers_.size(); }

  /// Tasks that threw (and were contained) since construction.
  std::int64_t task_exceptions() const {
    return task_exceptions_.load(std::memory_order_relaxed);
  }

 private:
  void WorkerLoop();

  std::atomic<std::int64_t> task_exceptions_{0};
  BoundedQueue<std::function<void()>> tasks_;
  std::vector<std::jthread> workers_;
};

/// Splits [begin, end) into contiguous chunks and runs `fn(lo, hi)` on the
/// pool, with the calling thread executing the first chunk itself. Runs
/// serially when `pool` is null or the range is smaller than `grain`.
///
/// `fn` must only touch disjoint state per index — no synchronization is
/// added. Chunk boundaries never split an index, so results are identical to
/// the serial order whenever `fn(lo, hi)` is equivalent to calling
/// `fn(i, i+1)` for each i. Do not call from inside a pool worker: the
/// calling thread blocks on the chunk futures, and nesting could deadlock a
/// saturated pool.
template <typename Fn>
void ParallelFor(ThreadPool* pool, std::int64_t begin, std::int64_t end,
                 std::int64_t grain, Fn&& fn) {
  if (end <= begin) return;
  const std::int64_t n = end - begin;
  if (grain < 1) grain = 1;
  std::int64_t chunks = (n + grain - 1) / grain;
  if (pool) {
    chunks = std::min<std::int64_t>(chunks, std::int64_t(pool->num_threads()) + 1);
  }
  if (!pool || chunks <= 1) {
    fn(begin, end);
    return;
  }
  const std::int64_t step = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> pending;
  pending.reserve(std::size_t(chunks) - 1);
  for (std::int64_t lo = begin + step; lo < end; lo += step) {
    const std::int64_t hi = std::min<std::int64_t>(lo + step, end);
    pending.push_back(pool->Async([&fn, lo, hi] { fn(lo, hi); }));
  }
  fn(begin, std::min<std::int64_t>(begin + step, end));
  for (auto& f : pending) f.get();
}

}  // namespace metro

// Fixed-size thread pool with futures, and the caller-runs fork-join every
// parallel loop in the library goes through.
//
// Tasks here are short: a pipelined time-point solve takes 30-300 us, and an
// intra-solve share (a color chunk, a level of LU columns, a BBD piece) a few
// microseconds.  At that grain a thread that hands its tasks to the pool and
// then blocks is itself the cost: on a 4-core host a 4 x 80 us fork-join that
// queues every task runs only three at once and takes ~190 us, against ~100 us
// when the caller runs one share itself.  So the rule is CALLER RUNS: a
// fork-join over n shares queues shares 1..n-1 and runs share 0 on the
// calling thread (ForkJoin), and a pool that serves N busy threads has N - 1
// workers (ForThreads).  Cost models and chunk counts read Participants()
// (workers + the caller), never size().  The queue itself stays simple — a
// mutex-protected deque and a condition variable.
//
// Shutdown semantics:
//  * Shutdown() (also run by the destructor) DRAINS the queue: every task
//    already accepted by Submit() runs to completion before the workers
//    exit, so no future obtained from a successful Submit() can dangle.
//  * Submit() after shutdown has begun throws wavepipe::Error instead of
//    enqueueing a task no worker would ever run (whose future.get() would
//    deadlock the caller forever).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/fault.hpp"

namespace wavepipe::util {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Schedules `fn` and returns a future for its result.  Exceptions thrown
  /// by `fn` propagate through the future.  Throws wavepipe::Error if the
  /// pool has begun stopping (the task would never run and its future could
  /// never be satisfied).
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using Result = std::invoke_result_t<Fn>;
    // The fault check runs INSIDE the packaged task so an injected throw is
    // captured into the future — exactly how a real task failure surfaces.
    auto task = std::make_shared<std::packaged_task<Result()>>(
        [fn = std::forward<Fn>(fn)]() mutable -> Result {
          if (WP_FAULT_POINT("pool.task_throw")) {
            throw fault::FaultInjectedError("pool.task_throw");
          }
          return fn();
        });
    std::future<Result> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) {
        throw Error("ThreadPool: Submit after shutdown began; the task would never run");
      }
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Stops accepting work, drains every queued task, and joins the workers.
  /// Idempotent; the destructor calls it.
  void Shutdown();

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// The pool that keeps `threads` threads busy in a fork-join whose caller
  /// runs one share: threads - 1 workers, or null (everything inline) for
  /// threads <= 1.  Participants() of the result is max(threads, 1).
  static std::unique_ptr<ThreadPool> ForThreads(int threads) {
    if (threads <= 1) return nullptr;
    return std::make_unique<ThreadPool>(static_cast<unsigned>(threads - 1));
  }

  /// Threads that work in a fork-join on `pool` whose caller runs one share
  /// itself: the workers plus the caller, or 1 (the caller alone) for a null
  /// pool.
  static unsigned Participants(const ThreadPool* pool) {
    return pool == nullptr ? 1u : pool->size() + 1u;
  }

  /// Runs fn(0) .. fn(shares - 1) and returns when all have finished.
  /// Shares 1..shares-1 are queued on `pool` first, then share 0 runs on the
  /// calling thread.  A null pool or a single share runs every share inline,
  /// in order.  Every share finishes before the lowest-index share's
  /// exception, if any, is rethrown, so no queued share outlives the state it
  /// captured.  The "pool.task_throw" fault site is evaluated once per share
  /// when the shares fork, the caller's share included.
  template <typename Fn>
  static void ForkJoin(ThreadPool* pool, std::size_t shares, Fn&& fn) {
    if (pool == nullptr || shares <= 1) {
      for (std::size_t share = 0; share < shares; ++share) fn(share);
      return;
    }
    std::vector<std::future<void>> queued;
    queued.reserve(shares - 1);
    std::exception_ptr first_error;
    try {
      for (std::size_t share = 1; share < shares; ++share) {
        queued.push_back(pool->Submit([&fn, share] { fn(share); }));
      }
      if (WP_FAULT_POINT("pool.task_throw")) {
        throw fault::FaultInjectedError("pool.task_throw");
      }
      fn(std::size_t{0});
    } catch (...) {
      first_error = std::current_exception();
    }
    for (auto& future : queued) {
      try {
        future.get();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  }

  /// Worker count of the pool whose worker thread is calling, or 0 on a
  /// thread that is no pool's worker.  Lets a task that owns a per-run
  /// resource budget share it with the tasks running beside it.
  static unsigned CurrentPoolSize();

  /// Liveness heartbeats for the stall watchdog (engine/resilience.hpp):
  /// ticked by workers at task pickup and completion (relaxed).  A pool whose
  /// started beat advances while completed stays put has a hung task; one
  /// where neither moves is idle or starved — the watchdog's no-progress
  /// window covers both, fed alongside the Newton-loop heartbeats.
  const std::atomic<std::uint64_t>& tasks_started_heartbeat() const {
    return tasks_started_;
  }
  const std::atomic<std::uint64_t>& tasks_completed_heartbeat() const {
    return tasks_completed_;
  }

 private:
  void WorkerLoop(unsigned pool_size);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::atomic<std::uint64_t> tasks_started_{0};
  std::atomic<std::uint64_t> tasks_completed_{0};
};

}  // namespace wavepipe::util

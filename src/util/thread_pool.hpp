// Fixed-size thread pool with futures.
//
// WavePipe's pipeline schemes submit one task per in-flight time point; the
// fine-grained baseline submits one task per device chunk.  The pool is
// intentionally simple: a mutex-protected deque and condition variable.  At
// WavePipe's granularity (one task = a full nonlinear solve, milliseconds to
// seconds) queue contention is irrelevant; clarity and correctness win.
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
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
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

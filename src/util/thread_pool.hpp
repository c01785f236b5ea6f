// Fixed-size thread pool: the gang fork-join every parallel loop in the
// library goes through, plus a futures queue for task farms.
//
// Tasks here are short: a pipelined time-point solve takes 30-300 us, and an
// intra-solve share (a color chunk, a level of LU columns, a BBD piece) a few
// microseconds.  At that grain handing work over is itself the cost, so
// ForkJoin keeps two rules:
//
//  * CALLER RUNS.  A fork-join over n shares runs share 0 on the calling
//    thread, and a pool that serves N busy threads has N - 1 workers
//    (ForThreads).  On a 4-core host a 4 x 80 us fork-join whose caller
//    queued every share and blocked ran only three at once (~190 us); with
//    the caller working it took ~100 us.  Cost models and chunk counts read
//    Participants() (workers + the caller), never size().
//  * ONE GANG BARRIER, NO PER-CALL ALLOCATION.  The caller publishes the job
//    (a type-erased function and the share count) by bumping one atomic
//    word, then runs share 0.  Worker w runs shares w+1, w+1+W, ... (W
//    workers) and decrements a pending count.  Both sides spin for at most
//    kSpinBudget and then park; the caller wakes parked workers, and the
//    last worker to finish wakes a parked caller.  Placement is static, so
//    share s >= 1 of every fork-join runs on worker (s - 1) mod W.  A 4-way
//    fork-join costs ~1.5 us while calls come closer than the spin budget,
//    against 16-22 us through packaged_task, future and a condition
//    variable per call.
//
// The pool runs one gang at a time.  A ForkJoin that finds the gang busy —
// another thread's fork-join on the same pool, or one nested inside a share
// — runs its shares inline, in order, on its own thread.  That cannot
// deadlock, and it changes no result: callers size their partitions from
// Participants(), never from who ends up running a share.
//
// Submit() keeps a mutex-protected deque and a condition variable, for task
// farms whose tasks run for milliseconds (the batch runner).
//
// Shutdown semantics:
//  * Shutdown() (also run by the destructor) DRAINS the queue: every task
//    already accepted by Submit() runs to completion before the workers
//    exit, so no future obtained from a successful Submit() can dangle.
//  * Submit() after shutdown has begun throws wavepipe::Error instead of
//    enqueueing a task no worker would ever run (whose future.get() would
//    deadlock the caller forever).  A ForkJoin after shutdown runs inline.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/error.hpp"
#include "util/fault.hpp"

namespace wavepipe::util {

class ThreadPool {
 public:
  /// How long a fork-join's caller, or an idle worker, busy-polls before it
  /// parks.  Measured on the 4-vCPU host (perfbench chain_newton, seed 3,
  /// `--seconds 5`, `tran_finegrained_s`, two single runs each): 0.0495 /
  /// 0.0516 s at 20 us, 0.0410 / 0.0425 s at 100 us and 0.0434 / 0.0412 s at
  /// 500 us; grid_lu read 0.039-0.045 s at all three.  100 us covers the
  /// serial LU a Newton pass runs between its fork-joins and the driver's
  /// bookkeeping between pipeline rounds, so workers are still polling when
  /// the next fork-join comes; a parked worker costs ~10 us to wake.
  static constexpr std::chrono::microseconds kSpinBudget{100};

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
      queued_.store(queue_.size(), std::memory_order_relaxed);
    }
    work_cv_.notify_one();
    return future;
  }

  /// Stops accepting work, drains every queued task, and joins the workers.
  /// Idempotent; the destructor calls it.
  void Shutdown();

  /// Worker threads the pool was built with.
  unsigned size() const { return num_workers_; }

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
  /// Share 0 runs on the calling thread and share s >= 1 on worker
  /// (s - 1) mod size().  A null pool or a single share runs every share
  /// inline, in order, and so does a call that finds the pool's gang busy
  /// (another fork-join holds it, or this one is nested inside a share).
  /// Every share finishes before the lowest-index share's exception, if
  /// any, is rethrown, so no share outlives the state it captured.  With a
  /// pool and two or more shares the "pool.task_throw" fault site is
  /// evaluated once per share, inline or not, the caller's share included.
  template <typename Fn>
  static void ForkJoin(ThreadPool* pool, std::size_t shares, Fn&& fn) {
    if (pool == nullptr || shares <= 1) {
      for (std::size_t share = 0; share < shares; ++share) fn(share);
      return;
    }
    auto checked = [&fn](std::size_t share) {
      if (WP_FAULT_POINT("pool.task_throw")) {
        throw fault::FaultInjectedError("pool.task_throw");
      }
      fn(share);
    };
    pool->RunGang(shares, &Invoke<decltype(checked)>, &checked);
  }

  /// ForkJoin whose shares fail one by one: errors[s] receives the exception
  /// of share s (the injected "pool.task_throw" fault included) instead of
  /// the lowest one being rethrown, and every share runs whatever the others
  /// did.  A share that returns leaves errors[s] as it was.  `errors` holds
  /// at least `shares` entries.  Same placement, inline and fault rules as
  /// ForkJoin above.
  template <typename Fn>
  static void ForkJoin(ThreadPool* pool, std::size_t shares, Fn&& fn,
                       std::span<std::exception_ptr> errors) {
    WP_ASSERT(errors.size() >= shares);
    const bool forks = pool != nullptr && shares > 1;
    auto caught = [&fn, errors, forks](std::size_t share) noexcept {
      try {
        if (forks && WP_FAULT_POINT("pool.task_throw")) {
          throw fault::FaultInjectedError("pool.task_throw");
        }
        fn(share);
      } catch (...) {
        errors[share] = std::current_exception();
      }
    };
    if (!forks) {
      for (std::size_t share = 0; share < shares; ++share) caught(share);
      return;
    }
    pool->RunGang(shares, &Invoke<decltype(caught)>, &caught);
  }

  /// Worker count of the pool whose worker thread is calling, or 0 on a
  /// thread that is no pool's worker.  Lets a task that owns a per-run
  /// resource budget share it with the tasks running beside it.
  static unsigned CurrentPoolSize();

  /// Liveness heartbeats for the stall watchdog (engine/resilience.hpp):
  /// ticked by workers when they pick up and finish a task or a fork-join
  /// share (relaxed).  A pool whose started beat advances while completed
  /// stays put has a hung task; one where neither moves is idle or starved —
  /// the watchdog's no-progress window covers both, fed alongside the
  /// Newton-loop heartbeats.
  const std::atomic<std::uint64_t>& tasks_started_heartbeat() const {
    return tasks_started_;
  }
  const std::atomic<std::uint64_t>& tasks_completed_heartbeat() const {
    return tasks_completed_;
  }

 private:
  /// One type-erased share: calls (*static_cast<Fn*>(fn))(share).
  using ShareFn = void (*)(void* fn, std::size_t share);

  template <typename Fn>
  static void Invoke(void* fn, std::size_t share) {
    (*static_cast<Fn*>(fn))(share);
  }

  /// The gang protocol behind both ForkJoin forms (shares >= 2).
  void RunGang(std::size_t shares, ShareFn invoke, void* fn);
  /// Runs every share of one gang on the calling thread, in order, and
  /// rethrows the first failure once all have run.
  static void RunInline(std::size_t shares, ShareFn invoke, void* fn);
  /// Worker `index`'s shares of the gang published as `word`.
  void RunShares(unsigned index, std::uint64_t word);
  void WorkerLoop(unsigned index);

  /// The gang word packs a generation counter above the share count, so
  /// one atomic load tells a worker both that a new gang exists and whether
  /// it has a share in it (a worker without one never reads the job).
  static constexpr int kShareBits = 24;
  static constexpr std::uint64_t kShareMask = (std::uint64_t{1} << kShareBits) - 1;

  /// A worker's lowest-index failure in the current gang, on its own cache
  /// line.
  struct alignas(64) WorkerSlot {
    std::exception_ptr error;
    std::size_t error_share = 0;
  };

  const unsigned num_workers_;
  std::vector<std::thread> workers_;
  std::unique_ptr<WorkerSlot[]> slots_;

  // ---- gang ----------------------------------------------------------------
  std::atomic<bool> gang_busy_{false};  ///< held by the one running fork-join
  ShareFn job_invoke_ = nullptr;        ///< written before the word is bumped
  void* job_fn_ = nullptr;
  alignas(64) std::atomic<std::uint64_t> gang_word_{0};
  alignas(64) std::atomic<std::size_t> pending_{0};  ///< workers still running
  std::atomic<bool> caller_parked_{false};
  std::atomic<unsigned> parked_workers_{0};

  // ---- queue and parking -----------------------------------------------------
  std::deque<std::function<void()>> queue_;
  std::atomic<std::size_t> queued_{0};  ///< queue_.size(), for spinning workers
  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< parked workers: gang, task or stop
  std::condition_variable join_cv_;  ///< a parked fork-join caller
  std::atomic<bool> stopping_{false};  ///< written under mutex_

  alignas(64) std::atomic<std::uint64_t> tasks_started_{0};
  alignas(64) std::atomic<std::uint64_t> tasks_completed_{0};
};

}  // namespace wavepipe::util

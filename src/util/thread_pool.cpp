#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace wavepipe::util {
namespace {

thread_local const ThreadPool* tl_pool = nullptr;
thread_local unsigned tl_pool_size = 0;

/// One spin-wait iteration's pause: lets the sibling hyperthread run and
/// keeps the poll off the memory bus.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Polls `ready` for up to ThreadPool::kSpinBudget; true once it holds.
/// The first microseconds pause between polls, so a fork-join that follows
/// closely (the next color of a pass) is picked up at once.  After that each
/// poll yields: on an oversubscribed host (pipeline slots beside an
/// intra-solve pool, or parallel test runs) a thread with work then gets
/// the core instead of a thread that only waits.
template <typename Ready>
bool SpinFor(Ready ready) {
  using Clock = std::chrono::steady_clock;
  constexpr std::chrono::microseconds kPausePhase{5};
  const Clock::time_point start = Clock::now();
  for (unsigned polls = 1;; ++polls) {
    if (ready()) return true;
    if (polls % 16 != 0) {
      CpuRelax();
      continue;
    }
    // A clock read costs ~45 ns; 16 pauses cost a few hundred.
    const Clock::duration spun = Clock::now() - start;
    if (spun >= ThreadPool::kSpinBudget) return ready();
    if (spun >= kPausePhase) std::this_thread::yield();
  }
}

}  // namespace

unsigned ThreadPool::CurrentPoolSize() { return tl_pool_size; }

ThreadPool::ThreadPool(unsigned num_threads)
    : num_workers_(num_threads), slots_(std::make_unique<WorkerSlot[]>(num_threads)) {
  WP_ASSERT(num_threads >= 1);
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  if (workers_.empty()) return;  // already shut down
  // Take the gang for good: a fork-join in flight finishes first, and a
  // later one runs inline instead of waiting on workers that have exited.
  while (gang_busy_.exchange(true, std::memory_order_acquire)) std::this_thread::yield();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
}

void ThreadPool::RunInline(std::size_t shares, ShareFn invoke, void* fn) {
  std::exception_ptr first_error;
  for (std::size_t share = 0; share < shares; ++share) {
    try {
      invoke(fn, share);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::RunGang(std::size_t shares, ShareFn invoke, void* fn) {
  // A worker of this pool cannot also serve its own shares, and the pool
  // runs one gang at a time: both cases run inline.
  if (tl_pool == this || shares > kShareMask ||
      gang_busy_.exchange(true, std::memory_order_acquire)) {
    RunInline(shares, invoke, fn);
    return;
  }
  const std::size_t participants = std::min<std::size_t>(num_workers_, shares - 1);
  job_invoke_ = invoke;
  job_fn_ = fn;
  pending_.store(participants, std::memory_order_relaxed);
  const std::uint64_t generation = (gang_word_.load(std::memory_order_relaxed) >> kShareBits) + 1;
  // seq_cst store, then seq_cst load of parked_workers_: either a parking
  // worker's re-check sees the new word, or this sees it parked and wakes it.
  gang_word_.store((generation << kShareBits) | shares);
  if (parked_workers_.load() > 0) {
    { std::lock_guard<std::mutex> lock(mutex_); }
    work_cv_.notify_all();
  }

  std::exception_ptr error;
  std::size_t error_share = 0;
  try {
    invoke(fn, 0);
  } catch (...) {
    error = std::current_exception();
  }

  if (!SpinFor([this] { return pending_.load(std::memory_order_acquire) == 0; })) {
    std::unique_lock<std::mutex> lock(mutex_);
    caller_parked_.store(true);  // pairs with the last worker's seq_cst decrement
    join_cv_.wait(lock, [this] { return pending_.load() == 0; });
    caller_parked_.store(false, std::memory_order_relaxed);
  }

  // Every share has finished.  Share 0 is the lowest index of all, and each
  // worker kept the first (lowest) failure of the shares it ran.
  for (std::size_t w = 0; w < participants; ++w) {
    WorkerSlot& slot = slots_[w];
    if (!slot.error) continue;
    if (!error || slot.error_share < error_share) {
      error = slot.error;
      error_share = slot.error_share;
    }
    slot.error = nullptr;
  }
  gang_busy_.store(false, std::memory_order_release);
  if (error) std::rethrow_exception(error);
}

void ThreadPool::RunShares(unsigned index, std::uint64_t word) {
  const std::size_t shares = static_cast<std::size_t>(word & kShareMask);
  if (index + 1 >= shares) return;  // no share in this gang; the job is not ours to read
  const ShareFn invoke = job_invoke_;
  void* const fn = job_fn_;
  WorkerSlot& slot = slots_[index];
  for (std::size_t share = index + 1; share < shares; share += num_workers_) {
    tasks_started_.fetch_add(1, std::memory_order_relaxed);
    try {
      invoke(fn, share);
    } catch (...) {
      if (!slot.error) {
        slot.error = std::current_exception();
        slot.error_share = share;
      }
    }
    tasks_completed_.fetch_add(1, std::memory_order_relaxed);
  }
  // seq_cst decrement, then seq_cst load of caller_parked_ (see RunGang).
  if (pending_.fetch_sub(1) == 1 && caller_parked_.load()) {
    std::lock_guard<std::mutex> lock(mutex_);
    join_cv_.notify_one();
  }
}

void ThreadPool::WorkerLoop(unsigned index) {
  tl_pool = this;
  tl_pool_size = num_workers_;
  // Gang words start at 0, so a worker that starts after the first fork-join
  // was published still sees it as new.
  std::uint64_t seen = 0;
  for (;;) {
    std::uint64_t word = seen;
    const bool woke = SpinFor([&] {
      word = gang_word_.load(std::memory_order_acquire);
      return word != seen || queued_.load(std::memory_order_relaxed) > 0 ||
             stopping_.load(std::memory_order_relaxed);
    });
    if (!woke) {
      std::unique_lock<std::mutex> lock(mutex_);
      parked_workers_.fetch_add(1);  // seq_cst, then the seq_cst word load below
      while (!stopping_ && queue_.empty() && (word = gang_word_.load()) == seen) {
        work_cv_.wait(lock);
      }
      parked_workers_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (word != seen) {
      // A waiting fork-join goes before queued tasks.
      seen = word;
      RunShares(index, word);
      continue;
    }
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (queue_.empty()) {
        if (stopping_) return;  // stopping and drained
        continue;  // another worker took it
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      queued_.store(queue_.size(), std::memory_order_relaxed);
    }
    tasks_started_.fetch_add(1, std::memory_order_relaxed);
    task();  // packaged_task captures exceptions into the future
    tasks_completed_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace wavepipe::util

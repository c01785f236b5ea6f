#include "util/thread_pool.hpp"

#include "util/error.hpp"

namespace wavepipe::util {
namespace {

thread_local unsigned tl_pool_size = 0;

}  // namespace

unsigned ThreadPool::CurrentPoolSize() { return tl_pool_size; }

ThreadPool::ThreadPool(unsigned num_threads) {
  WP_ASSERT(num_threads >= 1);
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, num_threads] { WorkerLoop(num_threads); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && workers_.empty()) return;  // already shut down
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
}

void ThreadPool::WorkerLoop(unsigned pool_size) {
  tl_pool_size = pool_size;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    tasks_started_.fetch_add(1, std::memory_order_relaxed);
    task();  // packaged_task captures exceptions into the future
    tasks_completed_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace wavepipe::util

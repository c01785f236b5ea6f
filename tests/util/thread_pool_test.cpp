#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

namespace wavepipe::util {
namespace {

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WorkersKnowTheirPoolSize) {
  EXPECT_EQ(ThreadPool::CurrentPoolSize(), 0u);
  ThreadPool pool(3);
  EXPECT_EQ(pool.Submit([] { return ThreadPool::CurrentPoolSize(); }).get(), 3u);
  ThreadPool single(1);
  EXPECT_EQ(single.Submit([] { return ThreadPool::CurrentPoolSize(); }).get(), 1u);
  EXPECT_EQ(ThreadPool::CurrentPoolSize(), 0u);
}

TEST(ThreadPool, ReturnsValues) {
  ThreadPool pool(2);
  auto f1 = pool.Submit([] { return 21 * 2; });
  auto f2 = pool.Submit([] { return std::string("hello"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "hello");
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  auto f = pool.Submit([] { return 7; });
  EXPECT_EQ(f.get(), 7);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // Destructor must wait for queued work.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, TasksRunConcurrentlyWithWorkers) {
  // Submit from inside a task (reentrant submission must not deadlock as
  // long as the submitting task doesn't block on its child with 1 worker).
  ThreadPool pool(2);
  auto outer = pool.Submit([&pool] {
    auto inner = pool.Submit([] { return 5; });
    return inner.get();
  });
  EXPECT_EQ(outer.get(), 5);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  // Historically this silently enqueued a task no worker would ever run;
  // the caller's future.get() then deadlocked forever.
  ThreadPool pool(2);
  auto pre = pool.Submit([] { return 1; });
  EXPECT_EQ(pre.get(), 1);
  pool.Shutdown();
  EXPECT_THROW(pool.Submit([] { return 2; }), Error);
}

TEST(ThreadPool, ShutdownIsIdempotentAndDrains) {
  std::atomic<int> counter{0};
  ThreadPool pool(2);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.Submit([&counter] { counter.fetch_add(1); }));
  }
  pool.Shutdown();
  pool.Shutdown();  // must be a no-op, not a crash
  EXPECT_EQ(counter.load(), 20);
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
}

TEST(ThreadPool, InjectedTaskThrowSurfacesThroughFuture) {
  // The pool.task_throw fault fires inside the packaged task, so the
  // injected exception takes the same path as a genuine task failure.
  ThreadPool pool(2);
  {
    fault::ScopedFault site("pool.task_throw");
    auto f = pool.Submit([] { return 3; });
    EXPECT_THROW(f.get(), fault::FaultInjectedError);
    EXPECT_EQ(site.fired(), 1u);
  }
  // Disarmed again: the pool is healthy and reusable.
  auto ok = pool.Submit([] { return 4; });
  EXPECT_EQ(ok.get(), 4);
}

}  // namespace
}  // namespace wavepipe::util

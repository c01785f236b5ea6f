#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

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

TEST(ThreadPool, ParticipantsCountsTheCaller) {
  EXPECT_EQ(ThreadPool::Participants(nullptr), 1u);
  ThreadPool pool(3);
  EXPECT_EQ(ThreadPool::Participants(&pool), 4u);
  // ForThreads(N) keeps N threads busy: N - 1 workers, no pool at N <= 1.
  EXPECT_EQ(ThreadPool::ForThreads(0), nullptr);
  EXPECT_EQ(ThreadPool::ForThreads(1), nullptr);
  EXPECT_EQ(ThreadPool::Participants(ThreadPool::ForThreads(4).get()), 4u);
}

TEST(ThreadPool, ForkJoinRunsShareZeroOnTheCaller) {
  ThreadPool pool(3);
  std::vector<std::thread::id> ran_on(8);
  ThreadPool::ForkJoin(&pool, ran_on.size(),
                       [&](std::size_t share) { ran_on[share] = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  for (std::size_t share = 1; share < ran_on.size(); ++share) {
    EXPECT_NE(ran_on[share], std::this_thread::get_id()) << share;
  }
}

TEST(ThreadPool, ForkJoinRunsEachShareExactlyOnce) {
  ThreadPool pool(2);
  for (std::size_t shares : {0u, 1u, 2u, 3u, 17u}) {
    std::vector<std::atomic<int>> runs(shares);
    ThreadPool::ForkJoin(&pool, shares, [&](std::size_t share) { runs[share].fetch_add(1); });
    for (std::size_t share = 0; share < shares; ++share) {
      EXPECT_EQ(runs[share].load(), 1) << shares << " shares, share " << share;
    }
  }
}

TEST(ThreadPool, ForkJoinWithoutAPoolRunsInlineInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  ThreadPool::ForkJoin(nullptr, 5, [&](std::size_t share) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(share);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));

  // A single share on a real pool runs inline too.
  ThreadPool pool(2);
  std::thread::id ran_on;
  ThreadPool::ForkJoin(&pool, 1, [&](std::size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPool, ForkJoinFinishesEveryShareBeforeRethrowingTheLowestFailure) {
  ThreadPool pool(3);
  std::atomic<int> finished{0};
  try {
    ThreadPool::ForkJoin(&pool, 6, [&](std::size_t share) {
      if (share == 4) throw std::runtime_error("share 4");
      if (share == 2) {
        // The slower failure has the lower index: it must still win.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        throw std::runtime_error("share 2");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished.fetch_add(1);
    });
    FAIL() << "ForkJoin swallowed the shares' exceptions";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "share 2");
  }
  EXPECT_EQ(finished.load(), 4);

  // The caller's own share failing is the lowest index of all.
  finished = 0;
  EXPECT_THROW(ThreadPool::ForkJoin(&pool, 4,
                                    [&](std::size_t share) {
                                      if (share == 0) throw std::runtime_error("caller");
                                      std::this_thread::sleep_for(
                                          std::chrono::milliseconds(20));
                                      finished.fetch_add(1);
                                    }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 3);
}

TEST(ThreadPool, ForkJoinEvaluatesTheTaskFaultOncePerShare) {
  ThreadPool pool(2);
  {
    fault::Schedule never;
    never.skip = fault::Schedule::kUnlimited;
    fault::ScopedFault site("pool.task_throw", never);
    ThreadPool::ForkJoin(&pool, 5, [](std::size_t) {});
    EXPECT_EQ(site.hits(), 5u);
    // Inline runs fork nothing and evaluate nothing.
    ThreadPool::ForkJoin(nullptr, 5, [](std::size_t) {});
    ThreadPool::ForkJoin(&pool, 1, [](std::size_t) {});
    EXPECT_EQ(site.hits(), 5u);
  }
  {
    // Fired on the caller's share, the fault surfaces after the queued
    // shares have run.
    fault::Schedule first;
    first.skip = 0;
    first.fire = 5;
    fault::ScopedFault site("pool.task_throw", first);
    std::atomic<int> ran{0};
    EXPECT_THROW(ThreadPool::ForkJoin(&pool, 3, [&](std::size_t) { ran.fetch_add(1); }),
                 fault::FaultInjectedError);
    EXPECT_EQ(site.fired(), 3u);
    EXPECT_EQ(ran.load(), 0);
  }
}

}  // namespace
}  // namespace wavepipe::util

#include "util/thread_pool.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

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

// ---------------------------------------------------------------------------
// The gang: static placement, one gang at a time, parking
// ---------------------------------------------------------------------------

TEST(ThreadPool, ForkJoinPlacesEachShareOnTheSameWorkerEveryTime) {
  ThreadPool pool(3);
  constexpr std::size_t kShares = 8;  // wraps: share s runs on worker (s - 1) mod 3
  std::vector<std::thread::id> first(kShares), second(kShares);
  ThreadPool::ForkJoin(&pool, kShares,
                       [&](std::size_t share) { first[share] = std::this_thread::get_id(); });
  ThreadPool::ForkJoin(&pool, kShares,
                       [&](std::size_t share) { second[share] = std::this_thread::get_id(); });
  for (std::size_t share = 0; share < kShares; ++share) {
    EXPECT_EQ(first[share], second[share]) << share;
  }
  for (std::size_t share = 1; share + 3 < kShares; ++share) {
    EXPECT_EQ(first[share], first[share + 3]) << share;
    EXPECT_NE(first[share], first[share + 1]) << share;
  }
}

TEST(ThreadPool, ConcurrentForkJoinsOnOnePoolRunOneGangAndOneInline) {
  ThreadPool pool(3);
  constexpr std::size_t kShares = 4;
  std::vector<std::atomic<int>> runs_a(kShares), runs_b(kShares);
  std::vector<std::thread::id> ran_b(kShares);
  std::thread::id thread_b;
  std::atomic<bool> a_holds_the_gang{false}, b_done{false};
  std::thread a([&] {
    ThreadPool::ForkJoin(&pool, kShares, [&](std::size_t share) {
      runs_a[share].fetch_add(1);
      if (share != 0) return;
      // Keep the gang until the other caller's fork-join has returned.
      a_holds_the_gang = true;
      while (!b_done) std::this_thread::yield();
    });
  });
  std::thread b([&] {
    while (!a_holds_the_gang) std::this_thread::yield();
    thread_b = std::this_thread::get_id();
    ThreadPool::ForkJoin(&pool, kShares, [&](std::size_t share) {
      runs_b[share].fetch_add(1);
      ran_b[share] = std::this_thread::get_id();
    });
    b_done = true;
  });
  a.join();
  b.join();
  for (std::size_t share = 0; share < kShares; ++share) {
    EXPECT_EQ(runs_a[share].load(), 1) << share;
    EXPECT_EQ(runs_b[share].load(), 1) << share;
    EXPECT_EQ(ran_b[share], thread_b) << "the busy gang must run share " << share << " inline";
  }
}

TEST(ThreadPool, ForkJoinNestedInAShareOfTheSamePoolRunsInline) {
  ThreadPool pool(2);
  constexpr std::size_t kShares = 3;
  std::vector<std::thread::id> outer(kShares);
  std::vector<std::vector<std::thread::id>> inner(kShares, std::vector<std::thread::id>(kShares));
  ThreadPool::ForkJoin(&pool, kShares, [&](std::size_t share) {
    outer[share] = std::this_thread::get_id();
    ThreadPool::ForkJoin(&pool, kShares, [&](std::size_t i) {
      inner[share][i] = std::this_thread::get_id();
    });
  });
  for (std::size_t share = 0; share < kShares; ++share) {
    for (std::size_t i = 0; i < kShares; ++i) EXPECT_EQ(inner[share][i], outer[share]);
  }
}

TEST(ThreadPool, ForkJoinRethrowsAWorkerFailureThatLandsAfterTheCallerParked) {
  ThreadPool pool(2);
  try {
    ThreadPool::ForkJoin(&pool, 3, [](std::size_t share) {
      if (share != 2) return;
      // Far past the spin budget: the caller has parked by now.
      std::this_thread::sleep_for(ThreadPool::kSpinBudget * 50);
      throw std::runtime_error("late");
    });
    FAIL() << "ForkJoin lost the late failure";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "late");
  }
  // The pool is healthy afterwards.
  std::atomic<int> runs{0};
  ThreadPool::ForkJoin(&pool, 3, [&](std::size_t) { runs.fetch_add(1); });
  EXPECT_EQ(runs.load(), 3);
}

TEST(ThreadPool, ForkJoinCanHandBackEveryShareFailure) {
  ThreadPool pool(2);
  std::vector<std::exception_ptr> errors(5);
  std::atomic<int> finished{0};
  ThreadPool::ForkJoin(
      &pool, errors.size(),
      [&](std::size_t share) {
        if (share == 1 || share == 4) throw std::runtime_error(std::to_string(share));
        finished.fetch_add(1);
      },
      errors);
  EXPECT_EQ(finished.load(), 3);
  for (std::size_t share = 0; share < errors.size(); ++share) {
    EXPECT_EQ(errors[share] != nullptr, share == 1 || share == 4) << share;
  }
  EXPECT_THROW(std::rethrow_exception(errors[4]), std::runtime_error);

  // The injected task fault lands in its share's slot like any failure.
  std::vector<std::exception_ptr> faulted(3);
  fault::Schedule second;
  second.skip = 1;
  fault::ScopedFault site("pool.task_throw", second);
  ThreadPool::ForkJoin(&pool, faulted.size(), [](std::size_t) {}, faulted);
  EXPECT_EQ(site.hits(), 3u);
  int failures = 0;
  for (const auto& error : faulted) {
    if (!error) continue;
    ++failures;
    EXPECT_THROW(std::rethrow_exception(error), fault::FaultInjectedError);
  }
  EXPECT_EQ(failures, 1);
}

TEST(ThreadPool, HeartbeatsTickOncePerWorkerShare) {
  ThreadPool pool(3);
  for (std::size_t shares : {2u, 4u, 9u}) {
    const std::uint64_t started = pool.tasks_started_heartbeat().load();
    const std::uint64_t completed = pool.tasks_completed_heartbeat().load();
    ThreadPool::ForkJoin(&pool, shares, [](std::size_t) {});
    EXPECT_EQ(pool.tasks_started_heartbeat().load() - started, shares - 1) << shares;
    EXPECT_EQ(pool.tasks_completed_heartbeat().load() - completed, shares - 1) << shares;
  }
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

TEST(ThreadPool, IdleWorkersParkOnceTheSpinBudgetRunsOut) {
  // Nobody busy-waits past the spin budget: a pool that spun forever would
  // burn ~600 ms of CPU (3 workers) over the sleep.
  ThreadPool pool(3);
  ThreadPool::ForkJoin(&pool, 4, [](std::size_t) {});
  const double before = ProcessCpuSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_LT(ProcessCpuSeconds() - before, 0.020);
}

}  // namespace
}  // namespace wavepipe::util

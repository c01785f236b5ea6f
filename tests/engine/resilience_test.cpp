// Durable-run machinery unit + engine-level tests: the run-budget governor,
// the feature circuit-breaker state machine, and the stall watchdog
// (including its fault-forced escalation path through a real serial run).
#include "engine/resilience.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "circuits/generators.hpp"
#include "engine/transient.hpp"
#include "util/checkpoint.hpp"
#include "util/fault.hpp"

namespace wavepipe {
namespace {

using engine::BreakerBoard;
using engine::Feature;
using engine::FeatureBit;
using engine::ResilienceOptions;
using engine::ResilienceStats;
using engine::RunBudget;
using engine::StallWatchdog;
using util::fault::Schedule;

// ---------------------------------------------------------------------------
// RunBudget
// ---------------------------------------------------------------------------

TEST(RunBudgetTest, DisabledBudgetNeverTrips) {
  const RunBudget budget{ResilienceOptions{}};
  EXPECT_FALSE(budget.enabled());
  EXPECT_TRUE(budget.Exceeded(1u << 30, 1u << 30, 1e9).empty());
}

TEST(RunBudgetTest, EachLimitProducesAStructuredReason) {
  ResilienceOptions options;
  options.max_steps = 10;
  options.max_newton_total = 100;
  options.max_wall_seconds = 60.0;
  const RunBudget budget{options};
  EXPECT_TRUE(budget.enabled());
  EXPECT_TRUE(budget.Exceeded(9, 99, 59.0).empty());

  for (const auto& reason :
       {budget.Exceeded(10, 0, 0.0), budget.Exceeded(0, 100, 0.0),
        budget.Exceeded(0, 0, 60.0)}) {
    ASSERT_FALSE(reason.empty());
    // Every governor stop starts with the shared prefix consumers key off.
    EXPECT_EQ(reason.rfind(engine::kBudgetExhausted, 0), 0u) << reason;
  }
  EXPECT_NE(budget.Exceeded(10, 0, 0.0).find("--max-steps"), std::string::npos);
  EXPECT_NE(budget.Exceeded(0, 100, 0.0).find("--max-newton-total"),
            std::string::npos);
  EXPECT_NE(budget.Exceeded(0, 0, 61.0).find("--max-wall"), std::string::npos);
}

// ---------------------------------------------------------------------------
// BreakerBoard
// ---------------------------------------------------------------------------

class BreakerBoardTest : public ::testing::Test {
 protected:
  void TearDown() override { util::fault::DisarmAll(); }

  ResilienceOptions SmallCooldown() {
    ResilienceOptions options;
    options.breaker_trip_threshold = 3;
    options.breaker_cooldown_steps = 4;
    return options;
  }
};

TEST_F(BreakerBoardTest, TripsAfterConsecutiveAttributedFailures) {
  ResilienceStats stats;
  BreakerBoard board(SmallCooldown(), stats);
  const std::uint64_t mask = FeatureBit(Feature::kChord);

  EXPECT_EQ(board.OnSolveOutcome(mask, false, 0.0), 0u);
  EXPECT_EQ(board.OnSolveOutcome(mask, false, 0.0), 0u);
  EXPECT_EQ(board.OnSolveOutcome(mask, false, 0.0), mask);
  EXPECT_TRUE(board.IsOpen(Feature::kChord));
  EXPECT_EQ(stats.breaker_trips, 1u);
  EXPECT_EQ(stats.feature_trips[static_cast<int>(Feature::kChord)], 1u);
  EXPECT_EQ(stats.breaker_retrips, 0u);

  // An open breaker ignores further outcomes (the feature is disengaged).
  EXPECT_EQ(board.OnSolveOutcome(mask, false, 0.0), 0u);
  EXPECT_EQ(stats.breaker_trips, 1u);
}

TEST_F(BreakerBoardTest, SuccessResetsTheConsecutiveFailureCount) {
  ResilienceStats stats;
  BreakerBoard board(SmallCooldown(), stats);
  const std::uint64_t mask = FeatureBit(Feature::kPartition);

  EXPECT_EQ(board.OnSolveOutcome(mask, false, 0.0), 0u);
  EXPECT_EQ(board.OnSolveOutcome(mask, false, 0.0), 0u);
  EXPECT_EQ(board.OnSolveOutcome(mask, true, 0.0), 0u);  // resets the streak
  EXPECT_EQ(board.OnSolveOutcome(mask, false, 0.0), 0u);
  EXPECT_EQ(board.OnSolveOutcome(mask, false, 0.0), 0u);
  EXPECT_FALSE(board.IsOpen(Feature::kPartition));
  EXPECT_EQ(stats.breaker_trips, 0u);
}

TEST_F(BreakerBoardTest, CooldownLeadsToHalfOpenReprobeThenRecloses) {
  ResilienceStats stats;
  BreakerBoard board(SmallCooldown(), stats);
  const std::uint64_t mask = FeatureBit(Feature::kBypass);
  for (int i = 0; i < 3; ++i) board.OnSolveOutcome(mask, false, 0.0);
  ASSERT_TRUE(board.IsOpen(Feature::kBypass));

  // Four accepted steps of cooldown, then the half-open re-probe mask.
  EXPECT_EQ(board.OnAcceptedStep(), 0u);
  EXPECT_EQ(board.OnAcceptedStep(), 0u);
  EXPECT_EQ(board.OnAcceptedStep(), 0u);
  EXPECT_EQ(board.OnAcceptedStep(), mask);
  EXPECT_EQ(stats.breaker_reprobes, 1u);
  EXPECT_FALSE(board.IsOpen(Feature::kBypass));

  // A successful probe recloses the breaker for good.
  EXPECT_EQ(board.OnSolveOutcome(mask, true, 0.0), 0u);
  EXPECT_FALSE(board.IsOpen(Feature::kBypass));
  for (int i = 0; i < 16; ++i) EXPECT_EQ(board.OnAcceptedStep(), 0u);
}

TEST_F(BreakerBoardTest, FailedReprobeRetripsWithDoubledCooldown) {
  ResilienceStats stats;
  BreakerBoard board(SmallCooldown(), stats);
  const std::uint64_t mask = FeatureBit(Feature::kParallelFactor);
  for (int i = 0; i < 3; ++i) board.OnSolveOutcome(mask, false, 0.0);
  for (int i = 0; i < 4; ++i) board.OnAcceptedStep();  // -> half-open

  // One failure in the half-open probe window re-trips immediately.
  EXPECT_EQ(board.OnSolveOutcome(mask, false, 0.0), mask);
  EXPECT_EQ(stats.breaker_trips, 2u);
  EXPECT_EQ(stats.breaker_retrips, 1u);

  // The second cooldown is doubled: 8 accepted steps, not 4.
  for (int i = 0; i < 7; ++i) EXPECT_EQ(board.OnAcceptedStep(), 0u) << i;
  EXPECT_EQ(board.OnAcceptedStep(), mask);
}

TEST_F(BreakerBoardTest, FailureIsAttributedToEveryActiveFeature) {
  ResilienceStats stats;
  BreakerBoard board(SmallCooldown(), stats);
  const std::uint64_t mask =
      FeatureBit(Feature::kChord) | FeatureBit(Feature::kParallelAssembly);
  board.OnSolveOutcome(mask, false, 0.0);
  board.OnSolveOutcome(mask, false, 0.0);
  EXPECT_EQ(board.OnSolveOutcome(mask, false, 0.0), mask);
  EXPECT_TRUE(board.IsOpen(Feature::kChord));
  EXPECT_TRUE(board.IsOpen(Feature::kParallelAssembly));
  EXPECT_FALSE(board.IsOpen(Feature::kPartition));
  EXPECT_EQ(stats.breaker_trips, 2u);
}

TEST_F(BreakerBoardTest, BreakerTripFaultForcesAnImmediateTrip) {
  ResilienceStats stats;
  BreakerBoard board(SmallCooldown(), stats);
  const std::uint64_t mask = FeatureBit(Feature::kPartition);
  util::fault::Arm("breaker.trip", Schedule{});

  // One outcome — even a CONVERGED one — trips under the forced fault.
  EXPECT_EQ(board.OnSolveOutcome(mask, true, 0.0), mask);
  EXPECT_EQ(util::fault::Fired("breaker.trip"), 1u);
  EXPECT_TRUE(board.IsOpen(Feature::kPartition));
  EXPECT_EQ(stats.feature_trips[static_cast<int>(Feature::kPartition)], 1u);
}

TEST_F(BreakerBoardTest, DisabledBoardIsInert) {
  ResilienceOptions options = SmallCooldown();
  options.breakers = false;
  ResilienceStats stats;
  BreakerBoard board(options, stats);
  const std::uint64_t mask = FeatureBit(Feature::kChord);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(board.OnSolveOutcome(mask, false, 0.0), 0u);
  EXPECT_FALSE(board.IsOpen(Feature::kChord));
  EXPECT_EQ(stats.breaker_trips, 0u);
}

TEST_F(BreakerBoardTest, EwmaDiagnosticsTrackOutcomes) {
  ResilienceStats stats;
  BreakerBoard board(SmallCooldown(), stats);
  const std::uint64_t mask = FeatureBit(Feature::kChord);
  EXPECT_EQ(board.FailureEwma(Feature::kChord), 0.0);
  board.OnSolveOutcome(mask, false, 0.25);
  EXPECT_GT(board.FailureEwma(Feature::kChord), 0.0);
  EXPECT_GT(board.LatencyEwma(Feature::kChord), 0.0);
  const double after_failure = board.FailureEwma(Feature::kChord);
  board.OnSolveOutcome(mask, true, 0.0);
  EXPECT_LT(board.FailureEwma(Feature::kChord), after_failure);
}

// ---------------------------------------------------------------------------
// StallWatchdog
// ---------------------------------------------------------------------------

class StallWatchdogTest : public ::testing::Test {
 protected:
  void TearDown() override { util::fault::DisarmAll(); }
};

TEST_F(StallWatchdogTest, ForcedStallEscalatesAndCounts) {
  ResilienceOptions options;
  options.watchdog = true;
  options.watchdog_interval_seconds = 0.005;
  options.watchdog_stall_intervals = 2;
  ResilienceStats stats;
  std::atomic<std::uint64_t> beat{0};

  Schedule schedule;
  schedule.fire = Schedule::kUnlimited;
  util::fault::Arm("watchdog.stall", schedule);

  StallWatchdog watchdog(options, stats);
  watchdog.AddSource(&beat);
  watchdog.Start();
  for (int i = 0; i < 400 && !watchdog.ShouldAbort(); ++i) {
    beat.fetch_add(1, std::memory_order_relaxed);  // real progress is overridden
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(watchdog.ShouldAbort());
  watchdog.Finish();
  EXPECT_GE(stats.watchdog_stalls, 1u);
  EXPECT_NE(watchdog.AbortReason().find("watchdog stall"), std::string::npos);
}

TEST_F(StallWatchdogTest, ProgressPreventsEscalation) {
  ResilienceOptions options;
  options.watchdog = true;
  options.watchdog_interval_seconds = 0.002;
  options.watchdog_stall_intervals = 3;
  ResilienceStats stats;
  std::atomic<std::uint64_t> beat{0};

  StallWatchdog watchdog(options, stats);
  watchdog.AddSource(&beat);
  watchdog.Start();
  // Beat once per watchdog sample, not per tick of this thread's own clock:
  // each interval between two samples sees a beat however late this thread
  // wakes, so only a real absence of progress could read as a stall.
  std::uint64_t seen = watchdog.samples();
  for (int i = 0; i < 20; ++i) {
    beat.fetch_add(1, std::memory_order_relaxed);
    while (watchdog.samples() == seen) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    seen = watchdog.samples();
  }
  EXPECT_FALSE(watchdog.ShouldAbort());
  watchdog.Finish();
  EXPECT_EQ(stats.watchdog_stalls, 0u);
}

TEST_F(StallWatchdogTest, DisabledWatchdogNeverStartsItsThread) {
  ResilienceOptions options;  // watchdog defaults off
  ResilienceStats stats;
  std::atomic<std::uint64_t> beat{0};
  StallWatchdog watchdog(options, stats);
  watchdog.AddSource(&beat);
  watchdog.Start();
  EXPECT_FALSE(watchdog.enabled());
  EXPECT_FALSE(watchdog.ShouldAbort());
  watchdog.Finish();
  EXPECT_EQ(stats.watchdog_stalls, 0u);
}

// ---------------------------------------------------------------------------
// Engine-level escalation: stall -> final checkpoint -> structured abort
// ---------------------------------------------------------------------------

TEST_F(StallWatchdogTest, SerialEngineEscalatesAStallIntoACheckpointedAbort) {
  // A horizon 100x the generator's: ~0.2 s of serial run on a 4-vCPU host
  // (5 ms at 1x), two hundred 1 ms samples, so the first sample escalates
  // long before the run could complete on its own.
  auto gen = circuits::MakeRcMesh(8, 8);
  gen.spec.tstop *= 100.0;
  engine::MnaStructure mna(*gen.circuit);
  const std::string base = ::testing::TempDir() + "/watchdog_abort.ckpt";
  std::remove((base + ".a").c_str());
  std::remove((base + ".b").c_str());

  Schedule schedule;
  schedule.fire = Schedule::kUnlimited;
  util::fault::Arm("watchdog.stall", schedule);

  engine::SimOptions sim;
  sim.resilience.watchdog = true;
  sim.resilience.watchdog_interval_seconds = 0.001;
  sim.resilience.watchdog_stall_intervals = 1;
  sim.resilience.checkpoint_path = base;
  const auto result = engine::RunTransientSerial(*gen.circuit, mna, gen.spec, sim);

  ASSERT_FALSE(result.completed);
  EXPECT_NE(result.abort_reason.find("watchdog stall"), std::string::npos)
      << result.abort_reason;
  EXPECT_GE(result.resilience.watchdog_stalls, 1u);
  EXPECT_GE(result.resilience.watchdog_escalations, 1u);
  EXPECT_GE(result.resilience.ckpt_writes, 1u);

  // The final checkpoint is loadable and belongs to this run: the stall
  // escalation path writes state BEFORE aborting, so the run is resumable.
  const engine::TransientCheckpoint ck = engine::LoadCheckpoint(base);
  EXPECT_EQ(ck.engine, "serial");
  EXPECT_EQ(ck.stats.steps_accepted, result.stats.steps_accepted);

  // With the fault disarmed, resuming that checkpoint completes the run.
  util::fault::DisarmAll();
  engine::SimOptions resume_sim;
  resume_sim.resilience.resume = &ck;
  const auto resumed = engine::RunTransientSerial(*gen.circuit, mna, gen.spec,
                                                  resume_sim);
  EXPECT_TRUE(resumed.completed) << resumed.abort_reason;
  EXPECT_EQ(resumed.last_good_time, gen.spec.tstop);
  std::remove((base + ".a").c_str());
  std::remove((base + ".b").c_str());
}

}  // namespace
}  // namespace wavepipe

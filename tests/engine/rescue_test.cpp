// Failure-path tests for the time-point rescue ladder and the serial
// loop's structured aborts, on both of its configurations (plain serial and
// fine-grained).  Faults are injected deterministically (util/fault.hpp), so
// every scenario here is reproducible.
#include "engine/rescue.hpp"

#include <gtest/gtest.h>

#include "engine/transient.hpp"
#include "testutil/engines.hpp"
#include "testutil/helpers.hpp"
#include "util/fault.hpp"

namespace wavepipe::engine {
namespace {

using util::fault::Schedule;
using util::fault::ScopedFault;

class RescueTest : public ::testing::Test {
 protected:
  void TearDown() override { util::fault::DisarmAll(); }

  /// Options that pin h0 to hmin, so ONE Newton failure exhausts the
  /// step-shrinking loop and hands control to the rescue ladder.
  static SimOptions ForcedHminOptions() {
    SimOptions options;
    options.hmin_ratio = 2e-5;  // hmin = 1e-7 on the 5 ms span below
    return options;
  }

  static TransientSpec RcSpec() {
    TransientSpec spec;
    spec.tstop = 5e-3;  // 5 tau of the testutil RC fixture
    return spec;
  }
};

TEST_F(RescueTest, FirstRungSucceedsOnHealthyCircuit) {
  const auto f = testutil::MakeStepRc();
  MnaStructure mna(*f.circuit);
  SolveContext ctx(*f.circuit, mna);
  SimOptions options;
  SolveDcOperatingPoint(ctx, options);
  History history(options.history_depth);
  history.Add(MakeDcSolutionPoint(ctx, 0.0));

  TransientStats stats;
  const RescueOutcome outcome =
      AttemptRescue(ctx, history.Window(4), 1e-6, options, stats);
  EXPECT_TRUE(outcome.rescued);
  EXPECT_EQ(outcome.rung, RescueRung::kBackwardEuler);
  ASSERT_NE(outcome.solve.point, nullptr);
  EXPECT_DOUBLE_EQ(outcome.solve.point->time, 1e-6);
  EXPECT_EQ(stats.rescues_attempted[0], 1u);
  EXPECT_EQ(stats.rescues_succeeded[0], 1u);
  EXPECT_EQ(stats.rescues_attempted[1], 0u);
  EXPECT_EQ(stats.rescues_attempted[2], 0u);
  EXPECT_NE(outcome.attempts.find("be-restart"), std::string::npos);
}

TEST_F(RescueTest, LadderExhaustsWhenNewtonIsPermanentlyPoisoned) {
  const auto f = testutil::MakeStepRc();
  MnaStructure mna(*f.circuit);
  SolveContext ctx(*f.circuit, mna);
  SimOptions options;
  SolveDcOperatingPoint(ctx, options);
  History history(options.history_depth);
  history.Add(MakeDcSolutionPoint(ctx, 0.0));

  Schedule always;
  always.fire = Schedule::kUnlimited;
  ScopedFault site("newton.converge", always);

  TransientStats stats;
  const RescueOutcome outcome =
      AttemptRescue(ctx, history.Window(4), 1e-6, options, stats);
  EXPECT_FALSE(outcome.rescued);
  for (int rung = 0; rung < kNumRescueRungs; ++rung) {
    EXPECT_EQ(stats.rescues_attempted[static_cast<std::size_t>(rung)], 1u) << rung;
    EXPECT_EQ(stats.rescues_succeeded[static_cast<std::size_t>(rung)], 0u) << rung;
  }
  // The attempts log names every rung, so the eventual abort is actionable.
  EXPECT_NE(outcome.attempts.find("be-restart"), std::string::npos);
  EXPECT_NE(outcome.attempts.find("damped-newton"), std::string::npos);
  EXPECT_NE(outcome.attempts.find("gshunt-ramp"), std::string::npos);
}

TEST_F(RescueTest, DisabledLadderReportsItself) {
  const auto f = testutil::MakeStepRc();
  MnaStructure mna(*f.circuit);
  SolveContext ctx(*f.circuit, mna);
  SimOptions options;
  options.rescue.enabled = false;
  SolveDcOperatingPoint(ctx, options);
  History history(options.history_depth);
  history.Add(MakeDcSolutionPoint(ctx, 0.0));

  TransientStats stats;
  const RescueOutcome outcome =
      AttemptRescue(ctx, history.Window(4), 1e-6, options, stats);
  EXPECT_FALSE(outcome.rescued);
  EXPECT_EQ(stats.TotalRescuesAttempted(), 0u);
  EXPECT_EQ(outcome.attempts, "rescue ladder disabled");
}

TEST_F(RescueTest, SerialRunRecoversViaRescueAndResumes) {
  const auto f = testutil::MakeStepRc();
  const MnaStructure mna(*f.circuit);
  for (const auto& engine : testutil::LoopEngines()) {
    SCOPED_TRACE(engine.name);
    // Hit 0 is the DCOP solve; hits 1-2 are clean transient steps; hit 3 is
    // one injected Newton failure.  With h0 pinned at hmin the shrink loop is
    // immediately out of road, so the failure must go through the ladder.
    Schedule schedule;
    schedule.skip = 3;
    schedule.fire = 1;
    ScopedFault site("newton.converge", schedule);

    const TransientResult result =
        testutil::RunLoopEngine(engine, *f.circuit, mna, RcSpec(), ForcedHminOptions());
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(result.abort_reason.empty());
    EXPECT_GE(result.stats.steps_rejected_newton, 1u);
    EXPECT_EQ(result.stats.rescues_attempted[0], 1u);
    EXPECT_EQ(result.stats.rescues_succeeded[0], 1u);
    // The run resumed after the rescue and reached tstop.
    ASSERT_NE(result.final_point, nullptr);
    EXPECT_NEAR(result.final_point->time, 5e-3, 1e-12);
    for (std::size_t i = 1; i < result.trace.num_samples(); ++i) {
      EXPECT_GT(result.trace.time(i), result.trace.time(i - 1));
    }
  }
}

TEST_F(RescueTest, SerialRunAbortsStructurallyWithPartialTrace) {
  const auto f = testutil::MakeStepRc();
  const MnaStructure mna(*f.circuit);
  for (const auto& engine : testutil::LoopEngines()) {
    SCOPED_TRACE(engine.name);
    Schedule schedule;
    schedule.skip = 3;
    schedule.fire = Schedule::kUnlimited;
    ScopedFault site("newton.converge", schedule);

    const TransientResult result =
        testutil::RunLoopEngine(engine, *f.circuit, mna, RcSpec(), ForcedHminOptions());
    EXPECT_FALSE(result.completed);
    EXPECT_NE(result.abort_reason.find("rescue ladder exhausted"), std::string::npos)
        << result.abort_reason;
    // The waveform computed before the abort is preserved: DC point plus the
    // two clean steps.
    EXPECT_GE(result.trace.num_samples(), 3u);
    EXPECT_GT(result.last_good_time, 0.0);
    EXPECT_LT(result.last_good_time, 5e-3);
    EXPECT_DOUBLE_EQ(result.trace.time(result.trace.num_samples() - 1),
                     result.last_good_time);
    EXPECT_EQ(result.stats.TotalRescuesAttempted(), 3u);
    EXPECT_EQ(result.stats.TotalRescuesSucceeded(), 0u);
  }
}

TEST_F(RescueTest, DcopFailureReturnsStructuredAbortNotThrow) {
  const auto f = testutil::MakeStepRc();
  const MnaStructure mna(*f.circuit);
  for (const auto& engine : testutil::LoopEngines()) {
    SCOPED_TRACE(engine.name);
    Schedule always;
    always.fire = Schedule::kUnlimited;
    ScopedFault site("newton.converge", always);

    TransientResult result;
    EXPECT_NO_THROW(result = testutil::RunLoopEngine(engine, *f.circuit, mna, RcSpec()));
    EXPECT_FALSE(result.completed);
    // The abort enumerates every DC strategy that was tried.
    EXPECT_NE(result.abort_reason.find("DC operating point failed"), std::string::npos);
    EXPECT_NE(result.abort_reason.find("direct"), std::string::npos);
    EXPECT_NE(result.abort_reason.find("gmin-stepping"), std::string::npos);
    EXPECT_NE(result.abort_reason.find("source-stepping"), std::string::npos);
    EXPECT_EQ(result.trace.num_samples(), 0u);
  }
}

TEST_F(RescueTest, SingularPivotIsARecoverableFailure) {
  const auto f = testutil::MakeStepRc();
  Schedule schedule;
  schedule.skip = 5;
  schedule.fire = 1;
  ScopedFault site("lu.pivot", schedule);

  const TransientResult result = testutil::RunSerial(*f.circuit, RcSpec());
  EXPECT_TRUE(result.completed) << result.abort_reason;
  EXPECT_GE(result.stats.steps_rejected_newton, 1u);
  ASSERT_NE(result.final_point, nullptr);
  EXPECT_NEAR(result.final_point->time, 5e-3, 1e-12);
}

TEST_F(RescueTest, PoisonedDeviceEvaluationIsARecoverableFailure) {
  const auto f = testutil::MakeStepRc();
  Schedule schedule;
  schedule.skip = 5;
  schedule.fire = 1;
  ScopedFault site("device.eval_nan", schedule);

  const TransientResult result = testutil::RunSerial(*f.circuit, RcSpec());
  EXPECT_TRUE(result.completed) << result.abort_reason;
  ASSERT_NE(result.final_point, nullptr);
  EXPECT_NEAR(result.final_point->time, 5e-3, 1e-12);
}

TEST_F(RescueTest, CleanRunNeverTouchesTheLadder) {
  const auto f = testutil::MakeStepRc();
  const TransientResult result = testutil::RunSerial(*f.circuit, RcSpec());
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.stats.TotalRescuesAttempted(), 0u);
  EXPECT_EQ(result.stats.TotalRescuesSucceeded(), 0u);
}

}  // namespace
}  // namespace wavepipe::engine

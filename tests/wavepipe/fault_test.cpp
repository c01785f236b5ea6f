// Failure-path tests for the pipelined schemes under deterministic fault
// injection: a fault may cost steps, never the waveform.  Because fault-site
// hit counters are global across worker threads, WHICH solve absorbs an
// injection is scheduling-dependent — so these tests assert outcome
// properties (completed XOR structured abort, monotone trace, no hang,
// consistent stats), not which worker failed.
#include <gtest/gtest.h>

#include "circuits/generators.hpp"
#include "engine/transient.hpp"
#include "parallel/fine_grained.hpp"
#include "util/fault.hpp"
#include "wavepipe/wavepipe.hpp"

namespace wavepipe::pipeline {
namespace {

using util::fault::Schedule;
using util::fault::ScopedFault;

struct FaultCase {
  Scheme scheme;
  int threads;
};

std::string CaseName(const ::testing::TestParamInfo<FaultCase>& info) {
  return std::string(SchemeName(info.param.scheme)) + "_t" +
         std::to_string(info.param.threads);
}

/// Every outcome a faulted run is allowed to have: either it completed to
/// tstop, or it returned a structured abort — with the partial waveform
/// intact and monotone either way.  A throw or a hang fails the test.
void ExpectWaveformNeverLost(const WavePipeResult& result, double tstop) {
  if (result.completed) {
    EXPECT_TRUE(result.abort_reason.empty()) << result.abort_reason;
    ASSERT_NE(result.final_point, nullptr);
    EXPECT_NEAR(result.final_point->time, tstop, 1e-12 * tstop);
  } else {
    EXPECT_FALSE(result.abort_reason.empty());
    EXPECT_LT(result.last_good_time, tstop);
  }
  ASSERT_GE(result.trace.num_samples(), 1u);
  for (std::size_t i = 1; i < result.trace.num_samples(); ++i) {
    EXPECT_GT(result.trace.time(i), result.trace.time(i - 1));
  }
  EXPECT_DOUBLE_EQ(result.trace.time(result.trace.num_samples() - 1),
                   result.last_good_time);
}

class SchemeFaultTest : public ::testing::TestWithParam<FaultCase> {
 protected:
  void TearDown() override { util::fault::DisarmAll(); }
};

TEST_P(SchemeFaultTest, TransientNewtonFaultsNeverLoseTheWaveform) {
  const FaultCase& param = GetParam();
  const auto gen = circuits::MakeRcLadder(12);
  engine::MnaStructure mna(*gen.circuit);

  Schedule schedule;
  schedule.skip = 6;
  schedule.fire = 2;
  ScopedFault site("newton.converge", schedule);

  WavePipeOptions options;
  options.scheme = param.scheme;
  options.threads = param.threads;
  const WavePipeResult result = RunWavePipe(*gen.circuit, mna, gen.spec, options);
  ExpectWaveformNeverLost(result, gen.spec.tstop);
  // Two transient failures are recoverable by shrink/rescue on this circuit.
  EXPECT_TRUE(result.completed) << result.abort_reason;
}

TEST_P(SchemeFaultTest, SingularPivotsNeverLoseTheWaveform) {
  const FaultCase& param = GetParam();
  const auto gen = circuits::MakeRcLadder(12);
  engine::MnaStructure mna(*gen.circuit);

  Schedule schedule;
  schedule.skip = 10;
  schedule.fire = 2;
  ScopedFault site("lu.pivot", schedule);

  WavePipeOptions options;
  options.scheme = param.scheme;
  options.threads = param.threads;
  const WavePipeResult result = RunWavePipe(*gen.circuit, mna, gen.spec, options);
  ExpectWaveformNeverLost(result, gen.spec.tstop);
}

TEST_P(SchemeFaultTest, PoisonedDeviceEvalsNeverLoseTheWaveform) {
  const FaultCase& param = GetParam();
  const auto gen = circuits::MakeRcLadder(12);
  engine::MnaStructure mna(*gen.circuit);

  Schedule schedule;
  schedule.skip = 10;
  schedule.fire = 2;
  ScopedFault site("device.eval_nan", schedule);

  WavePipeOptions options;
  options.scheme = param.scheme;
  options.threads = param.threads;
  const WavePipeResult result = RunWavePipe(*gen.circuit, mna, gen.spec, options);
  ExpectWaveformNeverLost(result, gen.spec.tstop);
}

TEST_P(SchemeFaultTest, UnrecoverableFaultsAbortStructurally) {
  const FaultCase& param = GetParam();
  const auto gen = circuits::MakeRcLadder(12);
  engine::MnaStructure mna(*gen.circuit);

  // Every Newton solve after warm-up fails, including the rescue ladder's:
  // the run must abort with the partial trace — no throw, no hang.
  Schedule schedule;
  schedule.skip = 6;
  schedule.fire = Schedule::kUnlimited;
  ScopedFault site("newton.converge", schedule);

  WavePipeOptions options;
  options.scheme = param.scheme;
  options.threads = param.threads;
  const WavePipeResult result = RunWavePipe(*gen.circuit, mna, gen.spec, options);
  ExpectWaveformNeverLost(result, gen.spec.tstop);
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.abort_reason.find("rescue ladder exhausted"), std::string::npos)
      << result.abort_reason;
  EXPECT_GE(result.stats.TotalRescuesAttempted(), 3u);
  EXPECT_EQ(result.stats.TotalRescuesSucceeded(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeFaultTest,
    ::testing::Values(FaultCase{Scheme::kSerial, 1},
                      FaultCase{Scheme::kBackward, 2},
                      FaultCase{Scheme::kBackward, 4},
                      FaultCase{Scheme::kForward, 2},
                      FaultCase{Scheme::kForward, 4},
                      FaultCase{Scheme::kCombined, 3},
                      FaultCase{Scheme::kCombined, 4}),
    CaseName);

class PipelineFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { util::fault::DisarmAll(); }
};

TEST_F(PipelineFaultTest, WorkerThrowMidRoundIsDrainedNotFatal) {
  // A task that throws inside the pool must be folded into a failed solve
  // (counted in drained_task_errors) while every sibling future of the same
  // round is still joined — the round may not hang or abandon workers.
  for (const FaultCase param : {FaultCase{Scheme::kBackward, 2},
                                FaultCase{Scheme::kForward, 4},
                                FaultCase{Scheme::kCombined, 3}}) {
    const auto gen = circuits::MakeRcLadder(12);
    engine::MnaStructure mna(*gen.circuit);

    Schedule schedule;
    schedule.skip = 4;
    schedule.fire = 2;
    ScopedFault site("pool.task_throw", schedule);

    WavePipeOptions options;
    options.scheme = param.scheme;
    options.threads = param.threads;
    const WavePipeResult result = RunWavePipe(*gen.circuit, mna, gen.spec, options);
    EXPECT_TRUE(result.completed)
        << SchemeName(param.scheme) << ": " << result.abort_reason;
    EXPECT_EQ(result.sched.drained_task_errors, 2u) << SchemeName(param.scheme);
    util::fault::DisarmAll();
  }
}

TEST_F(PipelineFaultTest, QuarantineDegradesToSerialAfterRepeatedFailures) {
  const auto gen = circuits::MakeRcLadder(12);
  engine::MnaStructure mna(*gen.circuit);

  // A burst of failures long enough to cover at least one full round's
  // solves, so the leading solve fails at least once.
  Schedule schedule;
  schedule.skip = 8;
  schedule.fire = 6;
  ScopedFault site("newton.converge", schedule);

  WavePipeOptions options;
  options.scheme = Scheme::kCombined;
  options.threads = 3;
  options.quarantine_threshold = 1;
  options.quarantine_rounds = 4;
  const WavePipeResult result = RunWavePipe(*gen.circuit, mna, gen.spec, options);
  EXPECT_TRUE(result.completed) << result.abort_reason;
  EXPECT_GE(result.sched.quarantine_activations, 1u);
  EXPECT_GE(result.sched.quarantined_rounds, 1u);
}

TEST_F(PipelineFaultTest, CleanRunHasNoFailureTelemetry) {
  const auto gen = circuits::MakeRcLadder(12);
  engine::MnaStructure mna(*gen.circuit);
  WavePipeOptions options;
  options.scheme = Scheme::kCombined;
  options.threads = 3;
  const WavePipeResult result = RunWavePipe(*gen.circuit, mna, gen.spec, options);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.sched.quarantine_activations, 0u);
  EXPECT_EQ(result.sched.quarantined_rounds, 0u);
  EXPECT_EQ(result.sched.drained_task_errors, 0u);
  EXPECT_EQ(result.stats.TotalRescuesAttempted(), 0u);
}

TEST_F(PipelineFaultTest, SchurFactorFaultIsAttributedToNewtonNotDrained) {
  // Regression: a SingularMatrixError from the BBD Schur factor inside a
  // pipeline round must surface as a FAILED SOLVE routed through
  // OnNewtonFailure (steps_rejected_newton / rescue attribution), never as a
  // generic drained_task_errors abort — the Schur pivot breakdown is a
  // numerical event, not a worker crash.
  const auto gen = circuits::MakeRcMesh(8, 8);
  engine::MnaStructure mna(*gen.circuit);

  Schedule schedule;
  schedule.skip = 3;
  schedule.fire = 1;
  ScopedFault site("schur.factor", schedule);

  WavePipeOptions options;
  options.scheme = Scheme::kCombined;
  options.threads = 3;
  options.sim.partition_pieces = 4;
  const WavePipeResult result = RunWavePipe(*gen.circuit, mna, gen.spec, options);
  ExpectWaveformNeverLost(result, gen.spec.tstop);
  EXPECT_TRUE(result.completed) << result.abort_reason;
  EXPECT_EQ(util::fault::Fired("schur.factor"), 1u);
  EXPECT_GE(result.stats.steps_rejected_newton, 1u);
  EXPECT_EQ(result.sched.drained_task_errors, 0u);
}

TEST_F(PipelineFaultTest, PersistentSchurFaultAbortsWithRescueAttribution) {
  const auto gen = circuits::MakeRcMesh(8, 8);
  engine::MnaStructure mna(*gen.circuit);

  Schedule schedule;
  schedule.skip = 3;
  schedule.fire = Schedule::kUnlimited;
  ScopedFault site("schur.factor", schedule);

  WavePipeOptions options;
  options.scheme = Scheme::kCombined;
  options.threads = 3;
  options.sim.partition_pieces = 4;
  // The partition breaker would otherwise degrade the run to the monolithic
  // path and complete it (asserted by the companion test below); this test
  // pins the undegraded abort attribution.
  options.sim.resilience.breakers = false;
  const WavePipeResult result = RunWavePipe(*gen.circuit, mna, gen.spec, options);
  ExpectWaveformNeverLost(result, gen.spec.tstop);
  EXPECT_FALSE(result.completed);
  // The abort must carry the Newton-failure attribution (singular pivot +
  // rescue ladder), not a drained-worker or generic scheduler reason.
  EXPECT_NE(result.abort_reason.find("singular"), std::string::npos)
      << result.abort_reason;
  EXPECT_GE(result.stats.TotalRescuesAttempted(), 1u);
  EXPECT_EQ(result.sched.drained_task_errors, 0u);
}

TEST_F(PipelineFaultTest, PartitionBreakerRescuesPersistentSchurFault) {
  const auto gen = circuits::MakeRcMesh(8, 8);
  engine::MnaStructure mna(*gen.circuit);

  Schedule schedule;
  schedule.skip = 3;
  schedule.fire = Schedule::kUnlimited;
  ScopedFault site("schur.factor", schedule);

  WavePipeOptions options;
  options.scheme = Scheme::kCombined;
  options.threads = 3;
  options.sim.partition_pieces = 4;
  // Default breakers: the persistent singular Schur factor trips the
  // partition breaker, the run degrades to the monolithic LU and COMPLETES
  // where the breaker-less run above aborts.
  const WavePipeResult result = RunWavePipe(*gen.circuit, mna, gen.spec, options);
  ExpectWaveformNeverLost(result, gen.spec.tstop);
  EXPECT_TRUE(result.completed) << result.abort_reason;
  EXPECT_GE(result.resilience.breaker_trips, 1u);
  EXPECT_GE(result.resilience.feature_trips[static_cast<int>(
                engine::Feature::kPartition)],
            1u);
  EXPECT_EQ(result.sched.drained_task_errors, 0u);
}

TEST_F(PipelineFaultTest, DcopFaultAbortsStructurally) {
  const auto gen = circuits::MakeRcLadder(8);
  engine::MnaStructure mna(*gen.circuit);
  Schedule always;
  always.fire = Schedule::kUnlimited;
  ScopedFault site("newton.converge", always);

  WavePipeOptions options;
  options.scheme = Scheme::kCombined;
  options.threads = 3;
  WavePipeResult result;
  EXPECT_NO_THROW(result = RunWavePipe(*gen.circuit, mna, gen.spec, options));
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.abort_reason.find("DC operating point failed"), std::string::npos);
  EXPECT_EQ(result.trace.num_samples(), 0u);
}

class FineGrainedFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { util::fault::DisarmAll(); }
};

TEST_F(FineGrainedFaultTest, SchurFactorFaultIsAbsorbedAsNewtonFailure) {
  // Regression: a SingularMatrixError from the BBD Schur factor inside a
  // fine-grained Newton solve used to unwind the whole run.  It must instead
  // surface as a failed solve (steps_rejected_newton) recovered by the
  // step-shrink ladder, exactly like the serial engine.
  const auto gen = circuits::MakeRcMesh(8, 8);
  engine::MnaStructure mna(*gen.circuit);

  Schedule schedule;
  schedule.skip = 3;
  schedule.fire = 1;
  ScopedFault site("schur.factor", schedule);

  parallel::FineGrainedOptions options;
  options.threads = 2;
  options.sim.partition_pieces = 4;
  parallel::FineGrainedResult result;
  ASSERT_NO_THROW(
      result = parallel::RunTransientFineGrained(*gen.circuit, mna, gen.spec, options));
  EXPECT_TRUE(result.completed) << result.abort_reason;
  EXPECT_EQ(util::fault::Fired("schur.factor"), 1u);
  EXPECT_GE(result.stats.steps_rejected_newton, 1u);
  ASSERT_NE(result.final_point, nullptr);
  EXPECT_NEAR(result.final_point->time, gen.spec.tstop, 1e-12 * gen.spec.tstop);
}

TEST_F(FineGrainedFaultTest, PersistentSchurFaultAbortsStructurally) {
  // With the partition breaker disabled, a persistent Schur pivot breakdown
  // exhausts the shrink ladder and must end in a structured abort (the old
  // behavior was an unwound SingularMatrixError), waveform intact.
  const auto gen = circuits::MakeRcMesh(8, 8);
  engine::MnaStructure mna(*gen.circuit);

  Schedule schedule;
  schedule.skip = 3;
  schedule.fire = Schedule::kUnlimited;
  ScopedFault site("schur.factor", schedule);

  parallel::FineGrainedOptions options;
  options.threads = 2;
  options.sim.partition_pieces = 4;
  options.sim.resilience.breakers = false;
  parallel::FineGrainedResult result;
  ASSERT_NO_THROW(
      result = parallel::RunTransientFineGrained(*gen.circuit, mna, gen.spec, options));
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.abort_reason.find("singular"), std::string::npos)
      << result.abort_reason;
  EXPECT_LT(result.last_good_time, gen.spec.tstop);
  // The waveform up to the abort is intact and monotone.
  for (std::size_t i = 1; i < result.trace.num_samples(); ++i) {
    EXPECT_GT(result.trace.time(i), result.trace.time(i - 1));
  }
}

TEST_F(FineGrainedFaultTest, PartitionBreakerDegradesPersistentSchurFault) {
  // Default breakers ON: the same persistent fault trips the partition
  // breaker after breaker_trip_threshold consecutive failures, the run
  // degrades to the monolithic LU path and COMPLETES.
  const auto gen = circuits::MakeRcMesh(8, 8);
  engine::MnaStructure mna(*gen.circuit);

  Schedule schedule;
  schedule.skip = 3;
  schedule.fire = Schedule::kUnlimited;
  ScopedFault site("schur.factor", schedule);

  parallel::FineGrainedOptions options;
  options.threads = 2;
  options.sim.partition_pieces = 4;
  parallel::FineGrainedResult result;
  ASSERT_NO_THROW(
      result = parallel::RunTransientFineGrained(*gen.circuit, mna, gen.spec, options));
  EXPECT_TRUE(result.completed) << result.abort_reason;
  EXPECT_GE(result.resilience.breaker_trips, 1u);
  EXPECT_GE(
      result.resilience.feature_trips[static_cast<int>(engine::Feature::kPartition)],
      1u);
  ASSERT_NE(result.final_point, nullptr);
  EXPECT_NEAR(result.final_point->time, gen.spec.tstop, 1e-12 * gen.spec.tstop);
}

}  // namespace
}  // namespace wavepipe::pipeline

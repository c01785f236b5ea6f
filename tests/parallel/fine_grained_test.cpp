#include "parallel/fine_grained.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "circuits/generators.hpp"
#include "engine/transient.hpp"

namespace wavepipe::parallel {
namespace {

TEST(FineGrained, MatchesSerialWaveform) {
  const auto gen = circuits::MakeInverterChain(5);
  engine::MnaStructure mna(*gen.circuit);
  const auto serial =
      engine::RunTransientSerial(*gen.circuit, mna, gen.spec, engine::SimOptions{});
  FineGrainedOptions options;
  options.threads = 3;
  const auto fg = RunTransientFineGrained(*gen.circuit, mna, gen.spec, options);
  // Same math, different summation order: tiny rounding-level deviations.
  EXPECT_LT(engine::Trace::MaxDeviationAll(serial.trace, fg.trace), 2e-3);
  EXPECT_EQ(fg.stats.steps_accepted, serial.stats.steps_accepted);
}

TEST(FineGrained, SingleThreadDegenerates) {
  // One thread, serial LU: the fine-grained configuration of the serial loop
  // is the serial engine, bit for bit and decision for decision, down to the
  // device loop (kAuto attaches no assembler at one thread).
  std::vector<circuits::GeneratedCircuit> gens;
  gens.push_back(circuits::MakeRcLadder(20));
  gens.push_back(circuits::MakeDiodeRectifier(2));
  gens.push_back(circuits::MakeRingOscillator(5));
  gens.push_back(circuits::MakeParasiticLadder(4, 4));
  for (const auto& gen : gens) {
    engine::MnaStructure mna(*gen.circuit);
    FineGrainedOptions options;
    options.threads = 1;
    const auto fg = RunTransientFineGrained(*gen.circuit, mna, gen.spec, options);
    const auto serial =
        engine::RunTransientSerial(*gen.circuit, mna, gen.spec, engine::SimOptions{});
    EXPECT_STREQ(fg.assembly.strategy, "serial") << gen.name;
    EXPECT_EQ(engine::Trace::MaxDeviationAll(serial.trace, fg.trace), 0.0) << gen.name;
    EXPECT_EQ(fg.stats.steps_accepted, serial.stats.steps_accepted) << gen.name;
    EXPECT_EQ(fg.stats.newton_iterations, serial.stats.newton_iterations) << gen.name;
    EXPECT_EQ(fg.stats.lu_full_factors + fg.stats.lu_refactors,
              serial.stats.lu_full_factors + serial.stats.lu_refactors)
        << gen.name;
  }
}

TEST(FineGrained, PhaseBreakdownPopulated) {
  const auto gen = circuits::MakeInverterChain(6);
  engine::MnaStructure mna(*gen.circuit);
  FineGrainedOptions options;
  options.threads = 2;
  const auto fg = RunTransientFineGrained(*gen.circuit, mna, gen.spec, options);
  EXPECT_GT(fg.phases.model_eval, 0.0);
  EXPECT_GT(fg.phases.lu, 0.0);
  EXPECT_GE(fg.phases.reduction, 0.0);
  EXPECT_GT(fg.phases.Total(), 0.0);
}

TEST(FineGrained, ForcedOrderPreservingColoredBitIdenticalWaveform) {
  // The acceptance invariant: colored assembly under the order-preserving
  // strategy replays every per-slot accumulation in exact device order, so
  // the whole transient — every Newton iterate, every step decision — is
  // BIT-identical to the serial engine.
  std::vector<circuits::GeneratedCircuit> gens;
  gens.push_back(circuits::MakeRcLadder(20));
  gens.push_back(circuits::MakeInverterChain(4));
  for (const auto& gen : gens) {
    engine::MnaStructure mna(*gen.circuit);
    const auto serial =
        engine::RunTransientSerial(*gen.circuit, mna, gen.spec, engine::SimOptions{});
    FineGrainedOptions options;
    options.threads = 3;
    options.assembly = AssemblyMode::kColored;
    options.coloring.strategy = ColorStrategy::kOrderPreserving;
    const auto fg = RunTransientFineGrained(*gen.circuit, mna, gen.spec, options);
    EXPECT_STREQ(fg.assembly.strategy, "colored") << gen.name;
    EXPECT_EQ(engine::Trace::MaxDeviationAll(serial.trace, fg.trace), 0.0) << gen.name;
    EXPECT_EQ(fg.stats.steps_accepted, serial.stats.steps_accepted) << gen.name;
  }
}

TEST(FineGrained, ForcedColoredMatchesSerialWaveform) {
  // Default (largest-degree-first) coloring: rounding-level deviations only.
  const auto gen = circuits::MakeRcMesh(6, 6);
  engine::MnaStructure mna(*gen.circuit);
  const auto serial =
      engine::RunTransientSerial(*gen.circuit, mna, gen.spec, engine::SimOptions{});
  FineGrainedOptions options;
  options.threads = 4;
  options.assembly = AssemblyMode::kColored;
  const auto fg = RunTransientFineGrained(*gen.circuit, mna, gen.spec, options);
  EXPECT_STREQ(fg.assembly.strategy, "colored");
  EXPECT_GT(fg.assembly.colors, 0);
  EXPECT_LT(engine::Trace::MaxDeviationAll(serial.trace, fg.trace), 2e-3);
}

TEST(FineGrained, ForcedReductionMatchesSerialWaveform) {
  const auto gen = circuits::MakeRcMesh(6, 6);
  engine::MnaStructure mna(*gen.circuit);
  const auto serial =
      engine::RunTransientSerial(*gen.circuit, mna, gen.spec, engine::SimOptions{});
  FineGrainedOptions options;
  options.threads = 4;
  options.assembly = AssemblyMode::kReduction;
  const auto fg = RunTransientFineGrained(*gen.circuit, mna, gen.spec, options);
  EXPECT_STREQ(fg.assembly.strategy, "reduction");
  EXPECT_LT(engine::Trace::MaxDeviationAll(serial.trace, fg.trace), 2e-3);
}

TEST(FineGrained, AutoModePicksByCostModel) {
  // Large mesh: colorable at a profit.  Inverter chain: supply-rail clique,
  // reduction keeps the job.
  {
    const auto gen = circuits::MakeRcMesh(16, 16);
    engine::MnaStructure mna(*gen.circuit);
    FineGrainedOptions options;
    options.threads = 4;
    const auto fg = RunTransientFineGrained(*gen.circuit, mna, gen.spec, options);
    EXPECT_STREQ(fg.assembly.strategy, "colored");
  }
  {
    const auto gen = circuits::MakeInverterChain(5);
    engine::MnaStructure mna(*gen.circuit);
    FineGrainedOptions options;
    options.threads = 4;
    const auto fg = RunTransientFineGrained(*gen.circuit, mna, gen.spec, options);
    EXPECT_STREQ(fg.assembly.strategy, "reduction");
  }
}

TEST(FineGrained, AmdahlModelSaturates) {
  PhaseBreakdown phases;
  phases.model_eval = 8.0;
  phases.reduction = 0.1;
  phases.lu = 2.0;
  phases.control = 0.5;
  const double s2 = ModelFineGrainedSpeedup(phases, 2);
  const double s4 = ModelFineGrainedSpeedup(phases, 4);
  const double s16 = ModelFineGrainedSpeedup(phases, 16);
  EXPECT_GT(s2, 1.0);
  EXPECT_GT(s4, s2);
  // Serial LU bounds the speedup: total/(lu+control) = 10.5/2.5 = 4.2 minus
  // reduction overhead.
  EXPECT_LT(s16, 4.2);
}

TEST(FineGrained, ModelIdentityAtOneThread) {
  PhaseBreakdown phases;
  phases.model_eval = 3.0;
  phases.reduction = 0.2;
  phases.lu = 1.0;
  phases.control = 0.3;
  // One thread: reduction of one copy vs none; speedup ~ 1 (slightly below).
  EXPECT_NEAR(ModelFineGrainedSpeedup(phases, 1), 1.0, 0.1);
}

TEST(FineGrained, ReductionOverheadEventuallyHurts) {
  PhaseBreakdown phases;
  phases.model_eval = 1.0;
  phases.reduction = 0.5;  // heavy reduction (big matrix, light models)
  phases.lu = 1.0;
  phases.control = 0.1;
  const double s2 = ModelFineGrainedSpeedup(phases, 2);
  const double s32 = ModelFineGrainedSpeedup(phases, 32);
  EXPECT_LT(s32, s2);  // overhead dominates at high thread counts
}

}  // namespace
}  // namespace wavepipe::parallel

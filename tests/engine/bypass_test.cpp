// Device latency bypass + chord-Newton factor reuse: the accelerations must
// never change what the simulator converges TO, only how much work it takes
// to get there.  Parity tests pin accepted traces to the always-recompute
// path within LTE-tolerance scale; unit tests pin the replay mechanics; the
// fault-injection test proves a degraded chord rate forces refactorization
// and never loops.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "circuits/generators.hpp"
#include "engine/newton.hpp"
#include "engine/transient.hpp"
#include "netlist/elaborate.hpp"
#include "parallel/fine_grained.hpp"
#include "testutil/engines.hpp"
#include "util/fault.hpp"
#include "wavepipe/wavepipe.hpp"

namespace wavepipe::engine {
namespace {

circuits::GeneratedCircuit MakeByName(const std::string& name) {
  if (name == "rcladder") return circuits::MakeRcLadder(24);
  if (name == "rcmesh") return circuits::MakeRcMesh(5, 5);
  if (name == "invchain") return circuits::MakeInverterChain(6);
  if (name == "rectifier") return circuits::MakeDiodeRectifier(2);
  if (name == "amp") return circuits::MakeMosAmplifierChain(2);
  throw std::logic_error("unknown circuit " + name);
}

bool HasBypassableDevices(const Circuit& circuit) {
  std::vector<int> ctrl;
  for (const auto& device : circuit.devices()) {
    ctrl.clear();
    device->ControllingUnknowns(ctrl);
    if (!ctrl.empty()) return true;
  }
  return false;
}

struct AccelCase {
  const char* circuit;
  bool bypass;
  bool chord;
  double max_deviation;     ///< absolute volts on the probe set
  bool expect_factor_cut;   ///< chord must strictly reduce factorizations
};

class AccelParityTest : public ::testing::TestWithParam<AccelCase> {};

// The accepted trace with bypass/chord enabled stays within LTE-tolerance
// scale of the always-recompute serial engine, and the accelerations
// actually engage where the circuit gives them something to do.
TEST_P(AccelParityTest, SerialTraceMatchesRecomputePath) {
  const AccelCase& param = GetParam();
  const auto gen = MakeByName(param.circuit);
  MnaStructure mna(*gen.circuit);

  const auto baseline = RunTransientSerial(*gen.circuit, mna, gen.spec, {});
  ASSERT_TRUE(baseline.completed) << baseline.abort_reason;

  SimOptions accel;
  accel.device_bypass = param.bypass;
  accel.chord_newton = param.chord;
  accel.chord_fill_ratio = 0.0;  // tiny test circuits factor fill-free
  const auto result = RunTransientSerial(*gen.circuit, mna, gen.spec, accel);
  ASSERT_TRUE(result.completed) << result.abort_reason;

  EXPECT_LT(Trace::MaxDeviationAll(baseline.trace, result.trace), param.max_deviation)
      << param.circuit;
  ASSERT_NE(result.final_point, nullptr);
  EXPECT_NEAR(result.final_point->time, gen.spec.tstop, 1e-12 * gen.spec.tstop);

  if (param.bypass) {
    if (HasBypassableDevices(*gen.circuit)) {
      EXPECT_GT(result.stats.bypassed_evals, 0u) << param.circuit;
    } else {
      // No opt-in devices: the bypass must stay inert (and bit-exact, below).
      EXPECT_EQ(result.stats.bypassed_evals, 0u);
    }
  } else {
    EXPECT_EQ(result.stats.bypassed_evals, 0u);
  }
  if (param.chord) {
    EXPECT_GT(result.stats.chord_solves, 0u) << param.circuit;
    const auto accel_factors =
        result.stats.lu_full_factors + result.stats.lu_refactors;
    const auto base_factors =
        baseline.stats.lu_full_factors + baseline.stats.lu_refactors;
    if (param.expect_factor_cut) {
      // Factor reuse must save factorizations overall, not just shuffle them.
      EXPECT_LT(accel_factors, base_factors) << param.circuit;
    } else {
      // Strongly nonlinear circuits may not profit, but the adaptive backoff
      // must keep failed chord attempts close to cost-neutral.
      EXPECT_LE(accel_factors, base_factors + base_factors / 10 + 10)
          << param.circuit;
    }
  } else {
    EXPECT_EQ(result.stats.chord_solves, 0u);
    EXPECT_EQ(result.stats.forced_refactors, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Acceleration, AccelParityTest,
    ::testing::Values(AccelCase{"rcladder", true, false, 0.02, false},
                      AccelCase{"rcladder", false, true, 0.02, true},
                      AccelCase{"rcladder", true, true, 0.02, true},
                      AccelCase{"rcmesh", false, true, 0.02, true},
                      AccelCase{"invchain", true, false, 0.15, false},
                      AccelCase{"invchain", false, true, 0.15, false},
                      AccelCase{"invchain", true, true, 0.15, false},
                      AccelCase{"rectifier", true, false, 0.08, false},
                      AccelCase{"rectifier", true, true, 0.08, false},
                      AccelCase{"amp", true, true, 0.05, false}),
    [](const ::testing::TestParamInfo<AccelCase>& info) {
      return std::string(info.param.circuit) + (info.param.bypass ? "_bypass" : "") +
             (info.param.chord ? "_chord" : "");
    });

// On a circuit with no opt-in devices the armed-but-idle bypass must leave
// the waveform BIT-identical: active() stays false and the historical device
// loop runs unchanged.
TEST(DeviceBypassTest, InertOnLinearCircuitIsBitExact) {
  const auto gen = circuits::MakeRcLadder(12);
  MnaStructure mna(*gen.circuit);
  ASSERT_FALSE(HasBypassableDevices(*gen.circuit));

  const auto baseline = RunTransientSerial(*gen.circuit, mna, gen.spec, {});
  SimOptions accel;
  accel.device_bypass = true;
  const auto result = RunTransientSerial(*gen.circuit, mna, gen.spec, accel);

  ASSERT_TRUE(baseline.completed);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(baseline.trace.num_samples(), result.trace.num_samples());
  for (std::size_t i = 0; i < baseline.trace.num_samples(); ++i) {
    EXPECT_DOUBLE_EQ(baseline.trace.time(i), result.trace.time(i)) << i;
    for (std::size_t p = 0; p < baseline.trace.probes().size(); ++p) {
      EXPECT_DOUBLE_EQ(baseline.trace.value(i, p), result.trace.value(i, p)) << i;
    }
  }
  EXPECT_EQ(result.stats.bypassed_evals, 0u);
  EXPECT_EQ(result.stats.bypass_full_evals, 0u);
}

// Replay mechanics at the EvalDevices level: a second pass at identical
// unknowns replays the cached stamps and reproduces the full evaluation.
// NEAR, not DOUBLE_EQ: when a bypassable device shares a matrix slot with an
// earlier device, replay computes prior + (final - prior), which is not
// bitwise `final` in floating point — only equal to rounding.
TEST(DeviceBypassTest, ReplayReproducesFullEvaluation) {
  const auto gen = circuits::MakeDiodeRectifier(2);
  MnaStructure mna(*gen.circuit);
  SolveContext ctx(*gen.circuit, mna);
  SimOptions options;
  options.device_bypass = true;
  ctx.ConfigureAcceleration(options);
  ASSERT_TRUE(ctx.bypass.active());

  for (std::size_t i = 0; i < ctx.x.size(); ++i) {
    ctx.x[i] = 0.4 * std::sin(1.7 * static_cast<double>(i) + 0.3);
  }
  NewtonInputs inputs;
  inputs.time = 1e-6;
  inputs.a0 = 2e6;
  inputs.transient = true;

  EvalDevices(ctx, inputs, /*limit_valid=*/false, /*first_iteration=*/true);
  EXPECT_EQ(ctx.bypass.bypassed_evals(), 0u);
  EXPECT_GT(ctx.bypass.full_evals(), 0u);
  const std::vector<double> matrix_ref(ctx.matrix.values().begin(),
                                       ctx.matrix.values().end());
  const std::vector<double> rhs_ref = ctx.rhs;
  const std::vector<double> state_ref = ctx.state_now;

  // Same unknowns, same pass scalars: bypassable devices must replay.
  EvalDevices(ctx, inputs, /*limit_valid=*/true, /*first_iteration=*/false);
  const std::uint64_t replayed = ctx.bypass.bypassed_evals();
  EXPECT_GT(replayed, 0u);
  const auto values = ctx.matrix.values();
  ASSERT_EQ(values.size(), matrix_ref.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(values[i], matrix_ref[i], 1e-9 * std::max(1.0, std::abs(matrix_ref[i])))
        << "matrix slot " << i;
  }
  for (std::size_t i = 0; i < rhs_ref.size(); ++i) {
    EXPECT_NEAR(ctx.rhs[i], rhs_ref[i], 1e-9 * std::max(1.0, std::abs(rhs_ref[i])))
        << "rhs row " << i;
  }
  for (std::size_t i = 0; i < state_ref.size(); ++i) {
    EXPECT_NEAR(ctx.state_now[i], state_ref[i],
                1e-12 * std::max(1.0, std::abs(state_ref[i])))
        << "state slot " << i;
  }

  // Moving every unknown far beyond the latency tolerance blocks replay.
  for (auto& v : ctx.x) v += 0.5;
  EvalDevices(ctx, inputs, /*limit_valid=*/true, /*first_iteration=*/false);
  EXPECT_EQ(ctx.bypass.bypassed_evals(), replayed);

  // A changed per-pass scalar (new integrator coefficient) blocks replay for
  // the whole pass even at unchanged unknowns.
  inputs.a0 = 4e6;
  EvalDevices(ctx, inputs, /*limit_valid=*/true, /*first_iteration=*/false);
  EXPECT_EQ(ctx.bypass.bypassed_evals(), replayed);

  // And the pass after THAT (scalars now stable again, unknowns unchanged)
  // replays once more — caches were refreshed, not abandoned.
  EvalDevices(ctx, inputs, /*limit_valid=*/true, /*first_iteration=*/false);
  EXPECT_GT(ctx.bypass.bypassed_evals(), replayed);

  // Invalidate drops every cached entry: the next identical pass recomputes.
  const std::uint64_t after_refresh = ctx.bypass.bypassed_evals();
  ctx.bypass.Invalidate();
  EvalDevices(ctx, inputs, /*limit_valid=*/true, /*first_iteration=*/false);
  EXPECT_EQ(ctx.bypass.bypassed_evals(), after_refresh);
}

// Fault site "chord.degraded": every chord iterate reports a degraded
// contraction rate, so each one must force a refactorization on the next
// iteration.  The simulation completing at all proves the safety net cannot
// ride a stale factor into an infinite loop; the trace staying on the
// baseline proves forced refactors are a clean fallback, not a perturbation.
TEST(ChordNewtonTest, DegradedRateFaultForcesRefactorAndTerminates) {
  const auto gen = circuits::MakeInverterChain(4);
  MnaStructure mna(*gen.circuit);

  const auto baseline = RunTransientSerial(*gen.circuit, mna, gen.spec, {});
  ASSERT_TRUE(baseline.completed);

  SimOptions accel;
  accel.device_bypass = true;
  accel.chord_newton = true;
  accel.chord_fill_ratio = 0.0;

  util::fault::ScopedFault fault(
      "chord.degraded",
      {.skip = 0, .fire = util::fault::Schedule::kUnlimited});
  const auto result = RunTransientSerial(*gen.circuit, mna, gen.spec, accel);
  ASSERT_TRUE(result.completed) << result.abort_reason;
  EXPECT_GT(fault.fired(), 0u);
  EXPECT_GT(result.stats.chord_solves, 0u);
  EXPECT_GT(result.stats.forced_refactors, 0u);
  EXPECT_LT(Trace::MaxDeviationAll(baseline.trace, result.trace), 0.15);
}

// Tiny chord budget: the budget check alone must force refactors (the rate
// monitor never trips on a well-conditioned circuit) and still converge.
TEST(ChordNewtonTest, ExhaustedIterationBudgetForcesRefactor) {
  const auto gen = circuits::MakeDiodeRectifier(2);
  MnaStructure mna(*gen.circuit);

  SimOptions accel;
  accel.chord_newton = true;
  accel.chord_fill_ratio = 0.0;
  accel.chord_iter_budget = 1;
  const auto result = RunTransientSerial(*gen.circuit, mna, gen.spec, accel);
  ASSERT_TRUE(result.completed) << result.abort_reason;
  EXPECT_GT(result.stats.forced_refactors, 0u);
}

// The colored conflict-free assembler routes through the same bypass: at 4
// threads, replayed stamps land in the shared matrix concurrently (disjoint
// footprints per color).  Run under TSan via the tsan label.
TEST(DeviceBypassTest, ColoredAssemblyParityWithBypass) {
  const auto gen = circuits::MakeInverterChain(6);
  MnaStructure mna(*gen.circuit);

  parallel::FineGrainedOptions base;
  base.threads = 4;
  base.assembly = parallel::AssemblyMode::kColored;
  const auto baseline = parallel::RunTransientFineGrained(*gen.circuit, mna, gen.spec, base);

  parallel::FineGrainedOptions accel = base;
  accel.sim.device_bypass = true;
  accel.sim.chord_newton = true;
  accel.sim.chord_fill_ratio = 0.0;
  const auto result = parallel::RunTransientFineGrained(*gen.circuit, mna, gen.spec, accel);

  EXPECT_LT(Trace::MaxDeviationAll(baseline.trace, result.trace), 0.15);
  EXPECT_GT(result.stats.bypassed_evals, 0u);
  EXPECT_GT(result.stats.chord_solves, 0u);
}

// The chunked reduction assembler routes through the same bypass as the
// serial and colored paths, but replay parity there rests on an invariant
// nothing enforces at compile time: cached stamp deltas are replayed into
// chunk-private buffers that must be zeroed every pass.  Pin it with a
// parity run so a future buffer-reuse optimization cannot silently break
// replay correctness.
TEST(DeviceBypassTest, ReductionAssemblyParityWithBypass) {
  const auto gen = circuits::MakeInverterChain(6);
  MnaStructure mna(*gen.circuit);

  parallel::FineGrainedOptions base;
  base.threads = 4;
  base.assembly = parallel::AssemblyMode::kReduction;
  const auto baseline = parallel::RunTransientFineGrained(*gen.circuit, mna, gen.spec, base);

  parallel::FineGrainedOptions accel = base;
  accel.sim.device_bypass = true;
  const auto result = parallel::RunTransientFineGrained(*gen.circuit, mna, gen.spec, accel);

  EXPECT_LT(Trace::MaxDeviationAll(baseline.trace, result.trace), 0.15);
  EXPECT_GT(result.stats.bypassed_evals, 0u);
}

// End to end through the WavePipe driver: the combined pipelining scheme
// with both accelerations on still reproduces the plain serial waveform.
TEST(DeviceBypassTest, WavePipeCombinedParityWithAcceleration) {
  const auto gen = circuits::MakeDiodeRectifier(2);
  MnaStructure mna(*gen.circuit);

  pipeline::WavePipeOptions serial_options;
  serial_options.scheme = pipeline::Scheme::kSerial;
  const auto serial = pipeline::RunWavePipe(*gen.circuit, mna, gen.spec, serial_options);

  pipeline::WavePipeOptions options;
  options.scheme = pipeline::Scheme::kCombined;
  options.threads = 3;
  options.sim.device_bypass = true;
  options.sim.chord_newton = true;
  options.sim.chord_fill_ratio = 0.0;
  const auto piped = pipeline::RunWavePipe(*gen.circuit, mna, gen.spec, options);

  ASSERT_TRUE(piped.completed);
  EXPECT_LT(Trace::MaxDeviationAll(serial.trace, piped.trace), 0.08);
  EXPECT_GT(piped.stats.bypassed_evals, 0u);
}

// Regression: a netlist whose LTE budget sits below the replay wobble (5 fF
// load caps, 3 V swings) used to pin every accepted step at hmin — ~1e9
// steps, an effective hang — with bypass at the default tolerance.  The
// step-floor safety valve must disable the bypass mid-run and let the step
// size recover, finishing in a step count comparable to the bypass-off run.
// The valve belongs to the serial step loop, so the fine-grained
// configuration of that loop must trip it the same way.
TEST(DeviceBypassTest, StepFloorValveDisablesBypassOnLteStarvedDeck) {
  const char* deck = R"(valve regression
.model mn NMOS (vto=0.7 kp=120u)
.model mp PMOS (vto=-0.7 kp=40u)
Vdd vdd 0 3.0
Vin in 0 PULSE(0 3 2n 1n 1n 8n 20n)
M1 o1 in vdd vdd mp W=4u L=1u
M2 o1 in 0 0 mn W=2u L=1u
M3 o2 o1 vdd vdd mp W=4u L=1u
M4 o2 o1 0 0 mn W=2u L=1u
C1 o1 0 5f
C2 o2 0 5f
.tran 0.5n 3n
)";
  const auto elaborated = netlist::ParseAndElaborate(deck);
  const MnaStructure mna(*elaborated.circuit);

  for (const auto& engine : testutil::LoopEngines()) {
    SCOPED_TRACE(engine.name);
    SimOptions base_options = elaborated.sim_options;
    const auto base = testutil::RunLoopEngine(engine, *elaborated.circuit, mna,
                                              elaborated.spec, base_options);
    ASSERT_TRUE(base.completed);

    SimOptions accel_options = base_options;
    accel_options.device_bypass = true;
    const auto accel = testutil::RunLoopEngine(engine, *elaborated.circuit, mna,
                                               elaborated.spec, accel_options);
    ASSERT_TRUE(accel.completed);
    EXPECT_GE(accel.stats.bypass_auto_disables, 1u);
    // Valve streak + recovery on top of the baseline economy, nowhere near the
    // ~1e9 hmin crawl.
    EXPECT_LE(accel.stats.steps_accepted,
              base.stats.steps_accepted + 4 * DeviceBypass::kFloorStreakLimit);
  }
}

// The trace pre-reservation satellite: the estimate is additive, capped, and
// visible so callers can mirror it for per-step detail storage.
TEST(TraceReserveTest, EstimateIsCappedAndAdditive) {
  Trace trace(ProbeSet::FirstNodes(4, 4));
  trace.ReserveEstimate(1024.0, 1.0);
  EXPECT_EQ(trace.reserved_samples(), 1024u);
  Trace huge(ProbeSet::FirstNodes(4, 4));
  huge.ReserveEstimate(1.0, 1e-12);  // span/hmin = 1e12: must hit the cap
  EXPECT_LE(huge.reserved_samples(), 4096u);
  Trace degenerate(ProbeSet::FirstNodes(4, 4));
  degenerate.ReserveEstimate(1.0, 0.0);  // no hmin: cap, not a division
  EXPECT_LE(degenerate.reserved_samples(), 4096u);
}

}  // namespace
}  // namespace wavepipe::engine

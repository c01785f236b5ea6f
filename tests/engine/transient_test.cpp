#include "engine/transient.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sparse/vector_ops.hpp"
#include "testutil/helpers.hpp"

namespace wavepipe::engine {
namespace {

using testutil::MakeSeriesRlc;
using testutil::MakeStepRc;

TEST(Transient, RcChargesWithAnalyticSolution) {
  auto f = MakeStepRc(/*delay=*/1e-4);
  MnaStructure mna(*f.circuit);
  TransientSpec spec;
  spec.tstop = 5e-3;
  spec.tstep = 1e-5;
  spec.probes.unknowns = {f.out};
  spec.probes.names = {"out"};
  const auto res = RunTransientSerial(*f.circuit, mna, spec, SimOptions{});

  for (double t : {5e-4, 1e-3, 2e-3, 4e-3}) {
    const double analytic = 1.0 - std::exp(-(t - 1e-4) / f.tau());
    EXPECT_NEAR(res.trace.Interpolate(t, 0), analytic, 3e-3) << "t=" << t;
  }
  EXPECT_GT(res.stats.steps_accepted, 10u);
  EXPECT_EQ(res.stats.dcop_strategy, "direct");
}

TEST(Transient, RlcRingsAtResonance) {
  auto f = MakeSeriesRlc();
  MnaStructure mna(*f.circuit);
  TransientSpec spec;
  // Underdamped: omega_d ~ omega0 = 1/sqrt(LC) ~ 3.16e4 rad/s -> ~5 kHz.
  spec.tstop = 2e-3;
  spec.tstep = 1e-6;
  spec.probes.unknowns = {f.vc};
  spec.probes.names = {"vc"};
  SimOptions options;
  options.method = Method::kTrapezoidal;
  const auto res = RunTransientSerial(*f.circuit, mna, spec, options);

  // Analytic step response of series RLC (underdamped), shifted by the
  // source delay: vc(t) = 1 - e^{-a tau}(cos wd tau + a/wd sin wd tau).
  const double a = f.alpha();
  const double wd = std::sqrt(f.omega0() * f.omega0() - a * a);
  for (double t : {1e-4, 3e-4, 6e-4, 1.5e-3}) {
    const double tau = t - f.delay;
    const double analytic =
        1.0 - std::exp(-a * tau) * (std::cos(wd * tau) + a / wd * std::sin(wd * tau));
    EXPECT_NEAR(res.trace.Interpolate(t, 0), analytic, 0.02) << "t=" << t;
  }
}

TEST(Transient, GearMatchesTrapOnRc) {
  auto f = MakeStepRc();
  MnaStructure mna(*f.circuit);
  TransientSpec spec;
  spec.tstop = 3e-3;
  spec.probes.unknowns = {f.out};
  spec.probes.names = {"out"};
  SimOptions trap, gear;
  trap.method = Method::kTrapezoidal;
  gear.method = Method::kGear2;
  const auto r1 = RunTransientSerial(*f.circuit, mna, spec, trap);
  const auto r2 = RunTransientSerial(*f.circuit, mna, spec, gear);
  EXPECT_LT(Trace::MaxDeviationAll(r1.trace, r2.trace), 5e-3);
}

TEST(Transient, BreakpointsHitExactly) {
  auto f = MakeStepRc(/*delay=*/1e-3);
  MnaStructure mna(*f.circuit);
  TransientSpec spec;
  spec.tstop = 2e-3;
  spec.probes.unknowns = {f.in};
  spec.probes.names = {"in"};
  const auto res = RunTransientSerial(*f.circuit, mna, spec, SimOptions{});
  // One sample must land exactly on the pulse delay.
  bool found = false;
  for (std::size_t i = 0; i < res.trace.num_samples(); ++i) {
    if (std::abs(res.trace.time(i) - 1e-3) < 1e-15) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Transient, TighterToleranceTakesMoreSteps) {
  auto f = MakeSeriesRlc();
  MnaStructure mna(*f.circuit);
  TransientSpec spec;
  spec.tstop = 1e-3;
  SimOptions loose, tight;
  loose.reltol = 1e-2;
  tight.reltol = 1e-5;
  const auto r_loose = RunTransientSerial(*f.circuit, mna, spec, loose);
  const auto r_tight = RunTransientSerial(*f.circuit, mna, spec, tight);
  EXPECT_GT(r_tight.stats.steps_accepted, r_loose.stats.steps_accepted);
}

TEST(Transient, StepRecordsTrackAcceptedSteps) {
  // The trace is the step record: the DC sample, then one sample per
  // accepted step, each a positive step h beyond the last.
  auto f = MakeStepRc();
  MnaStructure mna(*f.circuit);
  TransientSpec spec;
  spec.tstop = 1e-3;
  const auto res = RunTransientSerial(*f.circuit, mna, spec, SimOptions{});
  ASSERT_GT(res.stats.steps_accepted, 0u);
  ASSERT_EQ(res.trace.num_samples(), res.stats.steps_accepted + 1);
  for (std::size_t i = 1; i < res.trace.num_samples(); ++i) {
    EXPECT_GT(res.trace.time(i) - res.trace.time(i - 1), 0.0) << i;
  }
}

TEST(Transient, FinalPointAtTstop) {
  auto f = MakeStepRc();
  MnaStructure mna(*f.circuit);
  TransientSpec spec;
  spec.tstop = 1e-3;
  const auto res = RunTransientSerial(*f.circuit, mna, spec, SimOptions{});
  ASSERT_NE(res.final_point, nullptr);
  EXPECT_NEAR(res.final_point->time, 1e-3, 1e-12);
}

TEST(Transient, SolveTimePointIsPureFunctionOfWindow) {
  // Two identical calls from the same window give identical results.
  auto f = MakeStepRc();
  MnaStructure mna(*f.circuit);
  SolveContext ctx1(*f.circuit, mna), ctx2(*f.circuit, mna);
  SimOptions options;
  SolveDcOperatingPoint(ctx1, options);
  const SolutionPointPtr dc = MakeDcSolutionPoint(ctx1, 0.0);
  HistoryWindow window{dc};
  const auto r1 = SolveTimePoint(ctx1, window, 1e-5, options.method, true, options);
  const auto r2 = SolveTimePoint(ctx2, window, 1e-5, options.method, true, options);
  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r2.converged);
  EXPECT_EQ(r1.point->x, r2.point->x);
  EXPECT_EQ(r1.point->q, r2.point->q);
}

TEST(Transient, SeedOverridesNewtonStart) {
  auto f = MakeStepRc();
  MnaStructure mna(*f.circuit);
  SolveContext ctx(*f.circuit, mna);
  SimOptions options;
  SolveDcOperatingPoint(ctx, options);
  HistoryWindow window{MakeDcSolutionPoint(ctx, 0.0)};
  const auto plain = SolveTimePoint(ctx, window, 1e-5, options.method, true, options);
  // Seeding with the known answer converges at least as fast.
  const auto seeded = SolveTimePoint(ctx, window, 1e-5, options.method, true, options,
                                     plain.point->x);
  ASSERT_TRUE(seeded.converged);
  EXPECT_LE(seeded.newton.iterations, plain.newton.iterations);
  EXPECT_LT(sparse::MaxAbsDiff(seeded.point->x, plain.point->x), 1e-9);
}

TEST(Transient, StepLimitsDerivation) {
  TransientSpec spec;
  spec.tstart = 0;
  spec.tstop = 1.0;
  spec.tstep = 1e-4;
  SimOptions options;
  const auto limits = StepLimits::FromSpec(spec, options);
  EXPECT_DOUBLE_EQ(limits.hmax, 1.0 / 50.0);
  EXPECT_DOUBLE_EQ(limits.hmin, options.hmin_ratio * 1.0);
  EXPECT_LE(limits.h0, spec.tstep);
  options.hmax = 1e-3;
  EXPECT_DOUBLE_EQ(StepLimits::FromSpec(spec, options).hmax, 1e-3);
}

}  // namespace
}  // namespace wavepipe::engine

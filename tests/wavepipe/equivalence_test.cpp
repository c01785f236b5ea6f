// The paper's central claim, as a parameterized property: every WavePipe
// scheme, on every benchmark circuit class, at every thread count, produces
// the same waveform as the conventional serial loop (within LTE-tolerance
// scale) — "parallel circuit simulation without jeopardizing convergence and
// accuracy".
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "circuits/generators.hpp"
#include "engine/transient.hpp"
#include "parallel/fine_grained.hpp"
#include "wavepipe/wavepipe.hpp"

namespace wavepipe::pipeline {
namespace {

struct EquivalenceCase {
  const char* circuit;
  Scheme scheme;
  int threads;
  double max_deviation;  ///< absolute volts on the probe set
};

circuits::GeneratedCircuit MakeByName(const std::string& name) {
  if (name == "rcladder") return circuits::MakeRcLadder(40);
  if (name == "rcmesh") return circuits::MakeRcMesh(6, 6);
  if (name == "invchain") return circuits::MakeInverterChain(6);
  if (name == "rectifier") return circuits::MakeDiodeRectifier(2);
  if (name == "amp") return circuits::MakeMosAmplifierChain(2);
  throw std::logic_error("unknown circuit " + name);
}

class SchemeEquivalenceTest : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(SchemeEquivalenceTest, WaveformMatchesSerial) {
  const EquivalenceCase& param = GetParam();
  const auto gen = MakeByName(param.circuit);
  engine::MnaStructure mna(*gen.circuit);

  WavePipeOptions serial_options;
  serial_options.scheme = Scheme::kSerial;
  const auto serial = RunWavePipe(*gen.circuit, mna, gen.spec, serial_options);

  WavePipeOptions options;
  options.scheme = param.scheme;
  options.threads = param.threads;
  const auto piped = RunWavePipe(*gen.circuit, mna, gen.spec, options);

  EXPECT_LT(engine::Trace::MaxDeviationAll(serial.trace, piped.trace),
            param.max_deviation)
      << param.circuit << " " << SchemeName(param.scheme) << " x" << param.threads;

  // End point agreement (the quantity integration errors accumulate into).
  ASSERT_NE(piped.final_point, nullptr);
  EXPECT_NEAR(piped.final_point->time, gen.spec.tstop, 1e-12 * gen.spec.tstop);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeEquivalenceTest,
    ::testing::Values(
        EquivalenceCase{"rcladder", Scheme::kBackward, 2, 0.02},
        EquivalenceCase{"rcladder", Scheme::kBackward, 3, 0.02},
        EquivalenceCase{"rcladder", Scheme::kForward, 2, 0.02},
        EquivalenceCase{"rcladder", Scheme::kForward, 4, 0.02},
        EquivalenceCase{"rcladder", Scheme::kCombined, 3, 0.02},
        EquivalenceCase{"rcmesh", Scheme::kBackward, 2, 0.02},
        EquivalenceCase{"rcmesh", Scheme::kForward, 2, 0.02},
        EquivalenceCase{"rcmesh", Scheme::kCombined, 3, 0.02},
        EquivalenceCase{"invchain", Scheme::kBackward, 2, 0.15},
        EquivalenceCase{"invchain", Scheme::kForward, 2, 0.15},
        EquivalenceCase{"invchain", Scheme::kCombined, 3, 0.15},
        EquivalenceCase{"invchain", Scheme::kCombined, 4, 0.15},
        EquivalenceCase{"rectifier", Scheme::kBackward, 2, 0.08},
        EquivalenceCase{"rectifier", Scheme::kForward, 2, 0.08},
        EquivalenceCase{"rectifier", Scheme::kCombined, 3, 0.08},
        EquivalenceCase{"amp", Scheme::kCombined, 3, 0.05}),
    [](const ::testing::TestParamInfo<EquivalenceCase>& info) {
      return std::string(info.param.circuit) + "_" + SchemeName(info.param.scheme) + "_t" +
             std::to_string(info.param.threads);
    });

void ExpectSameRun(const engine::TransientResult& a, const engine::TransientResult& b,
                   const std::string& what) {
  ASSERT_TRUE(a.completed) << what << ": " << a.abort_reason;
  ASSERT_TRUE(b.completed) << what << ": " << b.abort_reason;
  EXPECT_EQ(a.stats.steps_accepted, b.stats.steps_accepted) << what;
  EXPECT_EQ(a.stats.steps_rejected_lte, b.stats.steps_rejected_lte) << what;
  EXPECT_EQ(a.stats.steps_rejected_newton, b.stats.steps_rejected_newton) << what;
  EXPECT_EQ(a.stats.newton_iterations, b.stats.newton_iterations) << what;
  const auto demands = [](const engine::TransientStats& s) {
    return s.lu_full_factors + s.lu_refactors + s.factor_cache.hits;
  };
  EXPECT_EQ(demands(a.stats), demands(b.stats)) << what;
  ASSERT_EQ(a.trace.num_samples(), b.trace.num_samples()) << what;
  ASSERT_EQ(a.trace.probes().size(), b.trace.probes().size()) << what;
  for (std::size_t i = 0; i < a.trace.num_samples(); ++i) {
    const double ta = a.trace.time(i);
    const double tb = b.trace.time(i);
    ASSERT_EQ(std::memcmp(&ta, &tb, sizeof ta), 0) << what << " sample " << i;
    for (std::size_t p = 0; p < a.trace.probes().size(); ++p) {
      const double va = a.trace.value(i, p);
      const double vb = b.trace.value(i, p);
      ASSERT_EQ(std::memcmp(&va, &vb, sizeof va), 0)
          << what << " sample " << i << " probe " << p;
    }
  }
}

TEST(SerialParity, PipelineSerialSchemeMatchesEngineStepSequence) {
  // The serial engine, the fine-grained engine at one thread and the
  // pipeline's kSerial scheme are one loop (the driver's serial scheme), so
  // every sample of every probe and every step decision must agree bit for
  // bit, with and without the accelerations.
  struct Flags {
    const char* name;
    void (*apply)(engine::SimOptions&);
  };
  const Flags flag_sets[] = {
      {"plain", [](engine::SimOptions&) {}},
      {"bypass", [](engine::SimOptions& o) { o.device_bypass = true; }},
      {"chord", [](engine::SimOptions& o) { o.chord_newton = true; }},
      {"partition4", [](engine::SimOptions& o) { o.partition_pieces = 4; }},
  };
  std::vector<circuits::GeneratedCircuit> gens;
  gens.push_back(circuits::MakeRcLadder(12));
  gens.push_back(circuits::MakeInverterChain(4));
  gens.push_back(circuits::MakeDiodeRectifier(2));
  gens.push_back(circuits::MakeParasiticLadder(3, 4));
  for (const auto& gen : gens) {
    engine::MnaStructure mna(*gen.circuit);
    for (const Flags& flags : flag_sets) {
      engine::SimOptions sim;
      flags.apply(sim);
      const std::string what = gen.name + " " + flags.name;
      const auto serial = engine::RunTransientSerial(*gen.circuit, mna, gen.spec, sim);
      parallel::FineGrainedOptions fine;
      fine.threads = 1;
      fine.sim = sim;
      const auto fg = parallel::RunTransientFineGrained(*gen.circuit, mna, gen.spec, fine);
      WavePipeOptions options;
      options.scheme = Scheme::kSerial;
      options.sim = sim;
      const auto piped = RunWavePipe(*gen.circuit, mna, gen.spec, options);
      ExpectSameRun(serial, fg, what + " (fine-grained x1)");
      ExpectSameRun(serial, piped, what + " (pipeline serial)");
    }
  }
}

TEST(Determinism, SameSeedSameSchedule) {
  // Two runs of the same configuration must make identical scheduling
  // decisions (rounds, accepted steps, speculation outcomes).
  const auto gen = circuits::MakeInverterChain(4);
  engine::MnaStructure mna(*gen.circuit);
  WavePipeOptions options;
  options.scheme = Scheme::kCombined;
  options.threads = 3;
  const auto r1 = RunWavePipe(*gen.circuit, mna, gen.spec, options);
  const auto r2 = RunWavePipe(*gen.circuit, mna, gen.spec, options);
  EXPECT_EQ(r1.sched.rounds, r2.sched.rounds);
  EXPECT_EQ(r1.stats.steps_accepted, r2.stats.steps_accepted);
  EXPECT_EQ(r1.sched.speculative_accepted, r2.sched.speculative_accepted);
  EXPECT_EQ(r1.ledger.size(), r2.ledger.size());
  ASSERT_EQ(r1.trace.num_samples(), r2.trace.num_samples());
  for (std::size_t i = 0; i < r1.trace.num_samples(); ++i) {
    EXPECT_DOUBLE_EQ(r1.trace.time(i), r2.trace.time(i));
    EXPECT_DOUBLE_EQ(r1.trace.value(i, 0), r2.trace.value(i, 0));
  }
}

TEST(Combined, UsesBothMechanisms) {
  const auto gen = circuits::MakeRcLadder(40);
  engine::MnaStructure mna(*gen.circuit);
  WavePipeOptions options;
  options.scheme = Scheme::kCombined;
  options.threads = 3;
  const auto res = RunWavePipe(*gen.circuit, mna, gen.spec, options);
  EXPECT_GT(res.sched.backward_solves, 0u);
  EXPECT_GT(res.sched.speculative_solves, 0u);
}

TEST(Combined, UpgradesThreadCountBelowThree) {
  const auto gen = circuits::MakeRcLadder(10);
  engine::MnaStructure mna(*gen.circuit);
  WavePipeOptions options;
  options.scheme = Scheme::kCombined;
  options.threads = 2;  // driver bumps to 3
  EXPECT_NO_THROW(RunWavePipe(*gen.circuit, mna, gen.spec, options));
}

TEST(SchemeNames, Stable) {
  EXPECT_STREQ(SchemeName(Scheme::kSerial), "serial");
  EXPECT_STREQ(SchemeName(Scheme::kBackward), "bwp");
  EXPECT_STREQ(SchemeName(Scheme::kForward), "fwp");
  EXPECT_STREQ(SchemeName(Scheme::kCombined), "combined");
}

}  // namespace
}  // namespace wavepipe::pipeline

#include "parallel/coloring.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#include "circuits/generators.hpp"
#include "engine/newton.hpp"
#include "engine/transient.hpp"
#include "wavepipe/wavepipe.hpp"

namespace wavepipe::parallel {
namespace {

std::vector<circuits::GeneratedCircuit> AllGenerators() {
  std::vector<circuits::GeneratedCircuit> all;
  all.push_back(circuits::MakeRcLadder(16));
  all.push_back(circuits::MakeRcMesh(4, 5));
  all.push_back(circuits::MakeRingOscillator(5));
  all.push_back(circuits::MakeInverterChain(5));
  all.push_back(circuits::MakeDiodeRectifier(4));
  all.push_back(circuits::MakeMosAmplifierChain(3));
  all.push_back(circuits::MakeClockTree(3));
  return all;
}

engine::NewtonInputs TransientInputs() {
  engine::NewtonInputs inputs;
  inputs.time = 1e-9;
  inputs.a0 = 2e9;
  inputs.transient = true;
  inputs.gmin = 1e-12;
  return inputs;
}

/// A deterministic, slightly-off-equilibrium iterate so nonlinear devices
/// stamp nontrivial values.
void SeedIterate(engine::SolveContext& ctx) {
  for (std::size_t i = 0; i < ctx.x.size(); ++i) {
    ctx.x[i] = 0.7 * std::sin(0.37 * static_cast<double>(i) + 0.2);
  }
}

// ---------------------------------------------------------------- schedules

TEST(Coloring, SameColorFootprintsDisjointOnAllGenerators) {
  for (const auto& gen : AllGenerators()) {
    const engine::MnaStructure mna(*gen.circuit);
    for (const ColorStrategy strategy :
         {ColorStrategy::kLargestDegreeFirst, ColorStrategy::kOrderPreserving}) {
      const ColorSchedule schedule =
          BuildColorSchedule(*gen.circuit, mna, ColoringOptions{strategy});
      ASSERT_EQ(schedule.num_devices(), gen.circuit->devices().size()) << gen.name;
      ASSERT_GT(schedule.num_colors(), 0) << gen.name;

      // Every device appears exactly once across the color groups.
      std::size_t scheduled = 0;
      for (int c = 0; c < schedule.num_colors(); ++c) {
        for (int id : schedule.ColorDevices(c)) {
          EXPECT_EQ(schedule.color_of(static_cast<std::size_t>(id)), c) << gen.name;
          ++scheduled;
        }
      }
      EXPECT_EQ(scheduled, schedule.num_devices()) << gen.name;

      // THE invariant: no two devices of one color share a Jacobian slot or
      // RHS row.
      for (int c = 0; c < schedule.num_colors(); ++c) {
        std::set<int> claimed;
        for (int id : schedule.ColorDevices(c)) {
          const StampFootprintSet fp =
              FootprintOf(*gen.circuit->devices()[static_cast<std::size_t>(id)], mna);
          for (int res : fp.resources) {
            EXPECT_TRUE(claimed.insert(res).second)
                << gen.name << ": color " << c << " resource " << res
                << " claimed twice";
          }
        }
      }
    }
  }
}

TEST(Coloring, OrderPreservingLayersRespectDeviceOrder) {
  const auto gen = circuits::MakeRcLadder(12);
  const engine::MnaStructure mna(*gen.circuit);
  const ColorSchedule schedule = BuildColorSchedule(
      *gen.circuit, mna, ColoringOptions{ColorStrategy::kOrderPreserving});
  // Conflicting pair (d1 < d2) => color(d1) < color(d2): per-slot fold order
  // is exactly device order, the property behind bit-identity.
  const auto& devices = gen.circuit->devices();
  for (std::size_t d2 = 0; d2 < devices.size(); ++d2) {
    const StampFootprintSet fp2 = FootprintOf(*devices[d2], mna);
    const std::set<int> res2(fp2.resources.begin(), fp2.resources.end());
    for (std::size_t d1 = 0; d1 < d2; ++d1) {
      const StampFootprintSet fp1 = FootprintOf(*devices[d1], mna);
      const bool conflict = std::any_of(fp1.resources.begin(), fp1.resources.end(),
                                        [&res2](int r) { return res2.count(r) > 0; });
      if (conflict) {
        EXPECT_LT(schedule.color_of(d1), schedule.color_of(d2));
      }
    }
  }
}

TEST(Coloring, LargestDegreeFirstUsesFewColorsOnMesh) {
  const auto gen = circuits::MakeRcMesh(8, 8);
  const engine::MnaStructure mna(*gen.circuit);
  const ColorSchedule ldf = BuildColorSchedule(
      *gen.circuit, mna, ColoringOptions{ColorStrategy::kLargestDegreeFirst});
  // Greedy bound: at most max_degree + 1 colors; on a mesh that's a small
  // constant, far below the device count.
  EXPECT_LE(ldf.num_colors(), ldf.max_degree() + 1);
  EXPECT_LT(static_cast<std::size_t>(ldf.num_colors()), ldf.num_devices() / 4);
  EXPECT_GT(ldf.widest_color(), std::size_t{8});
}

// -------------------------------------------------------------- bit-identity

/// Runs one EvalDevices pass serially and once through the given assembler
/// on an identical context; returns max |difference| over matrix + RHS, with
/// exact 0.0 meaning bit-identical.
double AssemblyDeviation(const circuits::GeneratedCircuit& gen, AssemblyMode mode,
                         ColorStrategy strategy, int threads) {
  const engine::MnaStructure mna(*gen.circuit);
  engine::SolveContext serial_ctx(*gen.circuit, mna);
  engine::SolveContext parallel_ctx(*gen.circuit, mna);
  SeedIterate(serial_ctx);
  SeedIterate(parallel_ctx);

  const engine::NewtonInputs inputs = TransientInputs();
  engine::EvalDevices(serial_ctx, inputs, /*limit_valid=*/false, /*first_iteration=*/true);

  const auto assembler =
      MakeAssembler(mode, *gen.circuit, mna, threads, ColoringOptions{strategy});
  parallel_ctx.assembler = assembler.get();
  engine::EvalDevices(parallel_ctx, inputs, /*limit_valid=*/false,
                      /*first_iteration=*/true);

  double deviation = 0.0;
  const auto a = serial_ctx.matrix.values();
  const auto b = parallel_ctx.matrix.values();
  for (std::size_t k = 0; k < a.size(); ++k) {
    deviation = std::max(deviation, std::abs(a[k] - b[k]));
  }
  for (std::size_t i = 0; i < serial_ctx.rhs.size(); ++i) {
    deviation = std::max(deviation, std::abs(serial_ctx.rhs[i] - parallel_ctx.rhs[i]));
  }
  return deviation;
}

TEST(Coloring, OrderPreservingColoredAssemblyBitIdenticalToSerial) {
  for (const auto& gen : AllGenerators()) {
    for (int threads : {2, 4}) {
      EXPECT_EQ(AssemblyDeviation(gen, AssemblyMode::kColored,
                                  ColorStrategy::kOrderPreserving, threads),
                0.0)
          << gen.name << " threads=" << threads;
    }
  }
}

TEST(Coloring, LargestDegreeFirstDeterministicAcrossThreadCounts) {
  // LDF reorders per-slot folds (color order, not device order): only
  // rounding-level deviation from serial is promised — but the bits must not
  // depend on the thread count, unlike the reduction path's chunk partition.
  const auto gen = circuits::MakeRcMesh(6, 6);
  const engine::MnaStructure mna(*gen.circuit);
  const engine::NewtonInputs inputs = TransientInputs();

  std::vector<std::vector<double>> matrices;
  for (int threads : {1, 2, 4}) {
    engine::SolveContext ctx(*gen.circuit, mna);
    SeedIterate(ctx);
    const auto assembler = MakeAssembler(AssemblyMode::kColored, *gen.circuit, mna,
                                         threads, ColoringOptions{});
    ctx.assembler = assembler.get();
    engine::EvalDevices(ctx, inputs, false, true);
    const auto values = ctx.matrix.values();
    matrices.emplace_back(values.begin(), values.end());
    matrices.back().insert(matrices.back().end(), ctx.rhs.begin(), ctx.rhs.end());
  }
  EXPECT_EQ(matrices[0], matrices[1]);
  EXPECT_EQ(matrices[0], matrices[2]);

  EXPECT_LT(AssemblyDeviation(gen, AssemblyMode::kColored,
                              ColorStrategy::kLargestDegreeFirst, 4),
            1e-9);
}

TEST(Coloring, SingleChunkReductionBitIdenticalToSerial) {
  for (const auto& gen : AllGenerators()) {
    EXPECT_EQ(AssemblyDeviation(gen, AssemblyMode::kReduction,
                                ColorStrategy::kLargestDegreeFirst, 1),
              0.0)
        << gen.name;
  }
}

// ---------------------------------------------------------------- cost model

TEST(Coloring, CostModelPrefersColoredOnLargeMesh) {
  const auto gen = circuits::MakeRcMesh(30, 30);
  const engine::MnaStructure mna(*gen.circuit);
  const ColorSchedule schedule = BuildColorSchedule(*gen.circuit, mna);
  for (int threads : {2, 4, 8}) {
    const AssemblyCostEstimate est = CompareAssemblyCosts(schedule, mna, threads);
    EXPECT_TRUE(est.prefer_colored) << threads;
    EXPECT_LT(est.colored, est.reduction) << threads;
  }
  const auto assembler = MakeAssembler(AssemblyMode::kAuto, *gen.circuit, mna, 4);
  EXPECT_STREQ(assembler->stats().strategy, "colored");
}

TEST(Coloring, CostModelFallsBackOnDegenerateSupplyClique) {
  // Every PMOS bulk ties to vdd: the (vdd,vdd) diagonal slot forms a clique
  // over all of them, so colors ~ device count and barriers swamp the win.
  const auto gen = circuits::MakeInverterChain(8);
  const engine::MnaStructure mna(*gen.circuit);
  const ColorSchedule schedule = BuildColorSchedule(*gen.circuit, mna);
  const AssemblyCostEstimate est = CompareAssemblyCosts(schedule, mna, 4);
  EXPECT_FALSE(est.prefer_colored);

  const auto assembler = MakeAssembler(AssemblyMode::kAuto, *gen.circuit, mna, 4);
  EXPECT_STREQ(assembler->stats().strategy, "reduction");
}

TEST(Coloring, AutoModeAtOneThreadIsReduction) {
  const auto gen = circuits::MakeRcMesh(30, 30);
  const engine::MnaStructure mna(*gen.circuit);
  const auto assembler = MakeAssembler(AssemblyMode::kAuto, *gen.circuit, mna, 1);
  EXPECT_STREQ(assembler->stats().strategy, "reduction");
}

TEST(Coloring, VirtualTimeModelRanksStrategies) {
  engine::AssemblyStats measured;
  measured.zero_seconds = 1.0;
  measured.stamp_seconds = 8.0;
  measured.merge_seconds = 0.5;

  measured.strategy = "serial";
  const double serial = ModelAssemblySeconds(measured, 4);
  measured.strategy = "reduction";
  const double reduction = ModelAssemblySeconds(measured, 4);
  measured.strategy = "colored";
  const double colored = ModelAssemblySeconds(measured, 4);
  EXPECT_LT(reduction, serial);  // stamping scales even with the merge tax
  EXPECT_LT(colored, reduction);  // zero scales too, merge doesn't grow
  // At one thread every strategy degenerates to its own measured total.
  measured.strategy = "colored";
  EXPECT_NEAR(ModelAssemblySeconds(measured, 1), 9.5, 1e-12);
}

// ----------------------------------------------------------------- wavepipe

TEST(Coloring, WavePipeWithColoredAssemblyMatchesPlainRun) {
  const auto gen = circuits::MakeRcMesh(20, 20);
  const engine::MnaStructure mna(*gen.circuit);

  pipeline::WavePipeOptions plain;
  plain.scheme = pipeline::Scheme::kCombined;
  plain.threads = 3;
  const auto base = pipeline::RunWavePipe(*gen.circuit, mna, gen.spec, plain);
  EXPECT_STREQ(base.assembly.strategy, "serial");  // knob off by default

  pipeline::WavePipeOptions with_assembly = plain;
  with_assembly.assembly_threads = 4;
  const auto colored = pipeline::RunWavePipe(*gen.circuit, mna, gen.spec, with_assembly);
  EXPECT_STREQ(colored.assembly.strategy, "colored");
  EXPECT_GT(colored.assembly.passes, 0u);
  EXPECT_GT(colored.assembly.colors, 0);

  // Colored assembly only reorders FP accumulation at rounding level, but
  // the combined scheme's directly-accepted speculative points carry
  // tolerance-scale noise that amplifies any rounding difference between two
  // pipelined runs — so the comparison bound is the solver-tolerance scale
  // the scheme-equivalence tests use, not machine epsilon.
  EXPECT_LT(engine::Trace::MaxDeviationAll(base.trace, colored.trace), 0.05);
  EXPECT_GT(colored.stats.steps_accepted, 0u);
}

TEST(Coloring, WavePipeSkipsAssemblerOnDegenerateCircuit) {
  const auto gen = circuits::MakeInverterChain(4);
  const engine::MnaStructure mna(*gen.circuit);
  pipeline::WavePipeOptions options;
  options.scheme = pipeline::Scheme::kForward;
  options.threads = 2;
  options.assembly_threads = 4;  // requested, but the cost model must refuse
  const auto result = pipeline::RunWavePipe(*gen.circuit, mna, gen.spec, options);
  EXPECT_STREQ(result.assembly.strategy, "serial");
  EXPECT_GT(result.stats.steps_accepted, 0u);
}

}  // namespace
}  // namespace wavepipe::parallel

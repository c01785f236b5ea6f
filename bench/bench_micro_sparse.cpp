// Micro benchmarks (google-benchmark): the kernel costs the pipeline cost
// model rests on — sparse LU factor vs refactor vs solve, fill-reducing
// orderings, and full device-evaluation sweeps.
#include <benchmark/benchmark.h>

#include "circuits/generators.hpp"
#include "engine/mna.hpp"
#include "engine/newton.hpp"
#include "sparse/lu.hpp"
#include "sparse/ordering.hpp"
#include "sparse/triplet.hpp"
#include "util/rng.hpp"

using namespace wavepipe;

namespace {

/// Assembled Jacobian of an n x n RC mesh (the canonical circuit matrix).
sparse::CscMatrix MeshMatrix(int n) {
  auto gen = circuits::MakeRcMesh(n, n);
  engine::MnaStructure mna(*gen.circuit);
  engine::SolveContext ctx(*gen.circuit, mna);
  engine::NewtonInputs inputs;
  inputs.a0 = 1e9;
  inputs.transient = true;
  engine::EvalDevices(ctx, inputs, false, true);
  return ctx.matrix;
}

void BM_LuFactor(benchmark::State& state) {
  const sparse::CscMatrix a = MeshMatrix(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    sparse::SparseLu lu;
    lu.Factor(a);
    benchmark::DoNotOptimize(lu.stats().nnz_l);
  }
  state.SetLabel(std::to_string(a.cols()) + " unknowns");
}
BENCHMARK(BM_LuFactor)->Arg(8)->Arg(16)->Arg(32);

void BM_LuRefactor(benchmark::State& state) {
  const sparse::CscMatrix a = MeshMatrix(static_cast<int>(state.range(0)));
  sparse::SparseLu lu;
  lu.Factor(a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lu.Refactor(a));
  }
  state.SetLabel(std::to_string(a.cols()) + " unknowns");
}
BENCHMARK(BM_LuRefactor)->Arg(8)->Arg(16)->Arg(32);

void BM_LuSolve(benchmark::State& state) {
  const sparse::CscMatrix a = MeshMatrix(static_cast<int>(state.range(0)));
  sparse::SparseLu lu;
  lu.Factor(a);
  std::vector<double> b(static_cast<std::size_t>(a.cols()), 1.0);
  for (auto _ : state) {
    std::vector<double> x = b;
    lu.Solve(x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_LuSolve)->Arg(8)->Arg(16)->Arg(32);

void BM_OrderingMinDegree(benchmark::State& state) {
  const sparse::CscMatrix a = MeshMatrix(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::MinimumDegreeOrder(a));
  }
  state.SetLabel(std::to_string(a.cols()) + " unknowns");
}
// 24 and 64 are the meshes of perfbench's grid_lu and of powergrid64x64.
BENCHMARK(BM_OrderingMinDegree)->Arg(8)->Arg(16)->Arg(24)->Arg(64);

void BM_FillByOrdering(benchmark::State& state) {
  // Measures factor time under the three orderings (fill differences).
  const sparse::CscMatrix a = MeshMatrix(16);
  const auto ordering = static_cast<sparse::SparseLu::Options::Ordering>(state.range(0));
  sparse::SparseLu::Options options;
  options.ordering = ordering;
  for (auto _ : state) {
    sparse::SparseLu lu(options);
    lu.Factor(a);
    benchmark::DoNotOptimize(lu.stats().nnz_l);
  }
  sparse::SparseLu lu(options);
  lu.Factor(a);
  state.SetLabel("nnz(L)=" + std::to_string(lu.stats().nnz_l));
}
BENCHMARK(BM_FillByOrdering)->Arg(0)->Arg(1)->Arg(2);  // MD, natural, RCM

void BM_DeviceEval(benchmark::State& state) {
  auto gen = circuits::MakeInverterChain(static_cast<int>(state.range(0)));
  engine::MnaStructure mna(*gen.circuit);
  engine::SolveContext ctx(*gen.circuit, mna);
  engine::NewtonInputs inputs;
  inputs.a0 = 1e9;
  inputs.transient = true;
  for (auto _ : state) {
    engine::EvalDevices(ctx, inputs, false, true);
    benchmark::DoNotOptimize(ctx.rhs.data());
  }
  state.SetLabel(std::to_string(gen.circuit->num_devices()) + " devices");
}
BENCHMARK(BM_DeviceEval)->Arg(10)->Arg(40);

void BM_FullTimePointSolve(benchmark::State& state) {
  // The unit of WavePipe scheduling: one nonlinear time-point solve.
  auto gen = circuits::MakeInverterChain(20);
  engine::MnaStructure mna(*gen.circuit);
  engine::SolveContext ctx(*gen.circuit, mna);
  engine::SimOptions options;
  engine::SolveDcOperatingPoint(ctx, options);
  engine::HistoryWindow window{engine::MakeDcSolutionPoint(ctx, 0.0)};
  for (auto _ : state) {
    auto result = engine::SolveTimePoint(ctx, window, 1e-12, options.method, true, options);
    benchmark::DoNotOptimize(result.converged);
  }
}
BENCHMARK(BM_FullTimePointSolve);

}  // namespace

BENCHMARK_MAIN();

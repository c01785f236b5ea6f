// Domain-decomposition bench: partitioned BBD factor+solve vs the monolithic
// level-scheduled LU, on a power-delivery grid past 100k unknowns.
//
// Methodology (a modeled diagnostic; perfbench/ measures wall clock end to
// end — see DESIGN.md "Environment substitutions"):
// all gated numbers are MODELED in deterministic flop units —
//   * monolithic baseline at k threads: the barrier-per-level cost model
//     ModelRefactorMakespanFlops(k) for the refactor plus one serial
//     triangular solve (monolithic sweeps do not meaningfully parallelize);
//   * partitioned at k threads: BbdSolver::ModelFactorSolveMakespanFlops(k) —
//     LPT-scheduled per-piece refactors, column-parallel Schur assembly,
//     serial Schur factor/solve, two LPT-scheduled per-piece solve sweeps.
// Both sides are pure functions of the factors, so the JSON is replayable and
// check_bench.py can gate it (`min_ratio` pins the headline >= 1.5x floor).
// Wall-clock numbers are reported for context and never gated.
//
// The mesh is deliberately elongated (3200x32): row-major node numbering
// makes the natural stripe separators `cols` wide, so the interface stays
// tiny relative to the pieces — the regime the BBD path is built for.
// Results go to BENCH_partition.json (run from the repo root so the
// committed copy refreshes in place).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "circuits/generators.hpp"
#include "engine/newton.hpp"
#include "partition/partitioner.hpp"
#include "sparse/bbd.hpp"
#include "sparse/lu.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace wavepipe;

namespace {

constexpr int kPieceCounts[] = {2, 4, 8};

engine::NewtonInputs TransientInputs() {
  engine::NewtonInputs inputs;
  inputs.time = 1e-9;
  inputs.a0 = 2e9;
  inputs.transient = true;
  inputs.gmin = 1e-12;
  return inputs;
}

void SeedIterate(engine::SolveContext& ctx, double phase) {
  for (std::size_t i = 0; i < ctx.x.size(); ++i) {
    ctx.x[i] = 0.7 * std::sin(0.37 * static_cast<double>(i) + phase);
  }
}

/// max|bbd - mono| / max|mono| over one shared right-hand side.
double SolveParityRelDiff(sparse::SparseLu& mono, sparse::BbdSolver& bbd, int n) {
  std::vector<double> rhs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    rhs[static_cast<std::size_t>(i)] = std::sin(0.13 * static_cast<double>(i)) + 1.5;
  }
  std::vector<double> x_mono = rhs, x_bbd = rhs, ws;
  mono.Solve(x_mono, ws);
  bbd.Solve(x_bbd, /*pool=*/nullptr);
  double max_ref = 0.0, max_diff = 0.0;
  for (int i = 0; i < n; ++i) {
    max_ref = std::max(max_ref, std::abs(x_mono[static_cast<std::size_t>(i)]));
    max_diff = std::max(max_diff, std::abs(x_bbd[static_cast<std::size_t>(i)] -
                                           x_mono[static_cast<std::size_t>(i)]));
  }
  return max_ref > 0.0 ? max_diff / max_ref : max_diff;
}

/// Smoke mode for CI: a small grid, engagement + parity checks, no JSON.
int RunSmoke() {
  const auto gen = circuits::MakePowerGrid(64, 16);
  const engine::MnaStructure mna(*gen.circuit);
  engine::SolveContext ctx(*gen.circuit, mna);
  SeedIterate(ctx, 0.2);
  engine::EvalDevices(ctx, TransientInputs(), /*limit_valid=*/false,
                      /*first_iteration=*/true);

  partition::PartitionTelemetry telem;
  partition::PartitionOptions popt;
  popt.pieces = 4;
  const auto plan = partition::PartitionPattern(ctx.matrix, popt, &telem);

  int failures = 0;
  const auto check = [&](bool ok, const char* what) {
    std::printf("  %-52s %s\n", what, ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  };

  std::printf("bench_partition --smoke: %s (n=%d, pieces=4)\n", gen.name.c_str(),
              mna.dimension());
  check(plan->Validate(ctx.matrix), "separator property holds");
  int nonempty = 0;
  for (const auto& interior : plan->interiors) nonempty += !interior.empty();
  check(nonempty >= 2, "partition engaged (>= 2 non-empty pieces)");
  check(!plan->interface_nodes.empty(), "interface is non-empty");

  sparse::SparseLu mono;
  mono.Factor(ctx.matrix);
  sparse::BbdSolver bbd;
  bbd.Configure(plan, ctx.matrix);
  bbd.FactorOrRefactor(ctx.matrix, nullptr);
  check(SolveParityRelDiff(mono, bbd, mna.dimension()) < 1e-7,
        "BBD solve matches monolithic (full factor)");

  // Numeric-only refactor cycle must preserve parity too.
  bbd.FactorOrRefactor(ctx.matrix, nullptr);
  check(bbd.stats().refactor_count >= 1, "second cycle took the refactor path");
  check(SolveParityRelDiff(mono, bbd, mna.dimension()) < 1e-7,
        "BBD solve matches monolithic (refactor)");

  if (failures) {
    std::fprintf(stderr, "bench_partition --smoke: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("bench_partition --smoke: all checks passed\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && !std::strcmp(argv[1], "--smoke")) return RunSmoke();

  std::printf("=== Domain decomposition: BBD vs monolithic level-scheduled ===\n\n");

  const auto gen = circuits::MakePowerGrid(3200, 32);
  const engine::MnaStructure mna(*gen.circuit);
  engine::SolveContext ctx(*gen.circuit, mna);
  SeedIterate(ctx, 0.2);
  engine::EvalDevices(ctx, TransientInputs(), /*limit_valid=*/false,
                      /*first_iteration=*/true);
  const int n = mna.dimension();
  std::printf("mesh %s: %d unknowns, %zu matrix nnz\n\n", gen.name.c_str(), n,
              mna.nnz());

  // Monolithic baseline: factor once, then one numeric refactor pass for a
  // wall-clock calibration point (report-only; the gate uses flop models).
  sparse::SparseLu mono;
  util::WallTimer mono_timer;
  mono.Factor(ctx.matrix);
  const double mono_factor_wall = mono_timer.Seconds();
  util::WallTimer mono_refactor_timer;
  mono.Refactor(ctx.matrix);
  const double mono_refactor_wall = mono_refactor_timer.Seconds();
  const sparse::SparseLu::Stats mono_stats = mono.stats();
  const double mono_solve_flops = static_cast<double>(
      mono_stats.nnz_l + mono_stats.nnz_u + static_cast<std::size_t>(n));
  const double mono_serial_flops = mono.serial_refactor_flops() + mono_solve_flops;

  util::Table table({"pieces", "interface", "imbalance", "bbd serial Mf",
                     "bbd makespan Mf", "x vs serial", "x vs levelsched",
                     "parity"});

  std::FILE* json = std::fopen("BENCH_partition.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot open BENCH_partition.json for writing\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"mesh\": \"%s\",\n", gen.name.c_str());
  std::fprintf(json, "  \"unknowns\": %d,\n", n);
  std::fprintf(json, "  \"nnz_matrix\": %zu,\n", mna.nnz());
  std::fprintf(json, "  \"monolithic\": {\n");
  std::fprintf(json, "    \"nnz_factors\": %zu,\n",
               mono_stats.nnz_l + mono_stats.nnz_u);
  std::fprintf(json, "    \"serial_refactor_flops\": %.1f,\n",
               mono.serial_refactor_flops());
  std::fprintf(json, "    \"solve_flops\": %.1f,\n", mono_solve_flops);
  for (int threads : kPieceCounts) {
    std::fprintf(json, "    \"levelsched_makespan_flops_%d\": %.1f,\n", threads,
                 mono.ModelRefactorMakespanFlops(threads) + mono_solve_flops);
  }
  std::fprintf(json, "    \"factor_wall_seconds\": %.6f,\n", mono_factor_wall);
  std::fprintf(json, "    \"refactor_wall_seconds\": %.6f\n", mono_refactor_wall);
  std::fprintf(json, "  },\n");
  std::fprintf(json, "  \"partitions\": [\n");

  double speedup_vs_serial[3] = {0, 0, 0};
  double speedup_vs_levelsched_8 = 0.0;
  double worst_parity = 0.0;
  bool all_parity_ok = true;
  util::telemetry::CounterRegistry counters8;

  for (std::size_t pi = 0; pi < 3; ++pi) {
    const int pieces = kPieceCounts[pi];
    partition::PartitionTelemetry telem;
    partition::PartitionOptions popt;
    popt.pieces = pieces;
    const auto plan = partition::PartitionPattern(ctx.matrix, popt, &telem);

    sparse::BbdSolver bbd;
    bbd.Configure(plan, ctx.matrix);
    util::WallTimer bbd_timer;
    bbd.FactorOrRefactor(ctx.matrix, nullptr);
    const double bbd_factor_wall = bbd_timer.Seconds();
    // Second cycle takes the numeric-refactor path, so the flop tallies the
    // makespan model reads describe the Newton hot loop, not the first factor.
    util::WallTimer bbd_refactor_timer;
    bbd.FactorOrRefactor(ctx.matrix, nullptr);
    const double bbd_refactor_wall = bbd_refactor_timer.Seconds();

    const double bbd_serial = bbd.SerialFactorSolveFlops();
    const double bbd_makespan = bbd.ModelFactorSolveMakespanFlops(pieces);
    speedup_vs_serial[pi] = mono_serial_flops / bbd_makespan;
    const double levelsched =
        mono.ModelRefactorMakespanFlops(pieces) + mono_solve_flops;
    const double vs_levelsched = levelsched / bbd_makespan;
    if (pieces == 8) {
      speedup_vs_levelsched_8 = vs_levelsched;
      bbd.stats().ExportCounters(counters8);
    }

    const double parity = SolveParityRelDiff(mono, bbd, n);
    worst_parity = std::max(worst_parity, parity);
    all_parity_ok = all_parity_ok && parity < 1e-6;

    table.AddRow({std::to_string(pieces),
                  std::to_string(plan->interface_nodes.size()),
                  util::Table::Cell(plan->Imbalance(), 3),
                  util::Table::Cell(bbd_serial / 1e6, 2),
                  util::Table::Cell(bbd_makespan / 1e6, 2),
                  util::Table::Cell(speedup_vs_serial[pi], 3),
                  util::Table::Cell(vs_levelsched, 3),
                  util::Table::Cell(parity, 2)});

    std::fprintf(json, "    {\n");
    std::fprintf(json, "      \"name\": \"pieces_%d\",\n", pieces);
    std::fprintf(json, "      \"pieces\": %d,\n", bbd.stats().pieces);
    std::fprintf(json, "      \"interface_size\": %zu,\n",
                 plan->interface_nodes.size());
    std::fprintf(json, "      \"piece_imbalance\": %.4f,\n", plan->Imbalance());
    std::fprintf(json, "      \"edge_cut_before_refine\": %zu,\n",
                 telem.edge_cut_before);
    std::fprintf(json, "      \"edge_cut_after_refine\": %zu,\n",
                 telem.edge_cut_after);
    std::fprintf(json, "      \"schur_nnz\": %zu,\n", bbd.stats().schur_nnz);
    std::fprintf(json, "      \"bbd_serial_flops\": %.1f,\n", bbd_serial);
    std::fprintf(json, "      \"bbd_makespan_flops\": %.1f,\n", bbd_makespan);
    std::fprintf(json, "      \"factor_wall_seconds\": %.6f,\n", bbd_factor_wall);
    std::fprintf(json, "      \"refactor_wall_seconds\": %.6f,\n",
                 bbd_refactor_wall);
    std::fprintf(json, "      \"solve_parity_rel_diff\": %.3e\n", parity);
    std::fprintf(json, "    }%s\n", pi + 1 < 3 ? "," : "");
  }

  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"partition_counters_8\": ");
  bench::WriteCountersJson(json, counters8, 2);
  std::fprintf(json, ",\n");
  for (std::size_t pi = 0; pi < 3; ++pi) {
    std::fprintf(json, "  \"partition_modeled_speedup_%d\": %.6f,\n",
                 kPieceCounts[pi], speedup_vs_serial[pi]);
  }
  std::fprintf(json, "  \"modeled_speedup_vs_levelsched_8\": %.6f,\n",
               speedup_vs_levelsched_8);
  std::fprintf(json, "  \"max_solve_parity_rel_diff\": %.3e,\n", worst_parity);
  std::fprintf(json, "  \"partition_beats_monolithic\": %s,\n",
               speedup_vs_levelsched_8 > 1.0 ? "true" : "false");
  std::fprintf(json, "  \"bbd_matches_monolithic_solve\": %s,\n",
               all_parity_ok ? "true" : "false");
  // Gate SPEC consumed by tools/check_bench.py: every numeric key matching
  // the substring must stay at or above the floor in a fresh run.  This pins
  // the acceptance bar "partitioned factor+solve beats monolithic
  // level-scheduled LU by >= 1.5x on a 100k-unknown grid".
  std::fprintf(json, "  \"min_ratio\": {\"modeled_speedup_vs_levelsched\": 1.5}\n");
  std::fprintf(json, "}\n");
  std::fclose(json);

  bench::Emit(table, "bench_partition");
  std::printf("(json written to BENCH_partition.json)\n");
  std::printf(
      "Expected shape: stripe separators stay %d nodes wide, so the interface\n"
      "block is tiny next to the pieces and the modeled partitioned makespan\n"
      "drops nearly linearly with pieces, while the monolithic level schedule\n"
      "flattens out — the 8-piece speedup over it clears the 1.5x gate.\n",
      32);
  return all_parity_ok ? 0 : 1;
}

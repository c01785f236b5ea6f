// Factorization bench: serial numeric refactorization vs the level-scheduled
// parallel path (sparse/lu.hpp), over the standard benchmark suite's circuit
// Jacobians.
//
// Methodology (a modeled diagnostic; perfbench/ measures wall clock end to
// end — see DESIGN.md "Environment substitutions"):
// the serial kernel and the 1-thread fallback are MEASURED (thread-CPU
// seconds over many refactor passes); multi-thread throughput is MODELED two
// ways —
//   * replay: the exact column-dependency DAG (plus the colored-assembly
//     phases feeding it) list-scheduled onto k virtual workers via the
//     ledger machinery (AppendAssemblyTasks/AppendFactorTasks), costed with
//     the measured per-flop rate;
//   * barrier model: ModelRefactorMakespanFlops(), the pessimistic
//     barrier-per-level cost model that gates the runtime serial fallback.
// Results go to BENCH_factor.json (run from the repo root so the committed
// copy refreshes in place).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "circuits/generators.hpp"
#include "engine/newton.hpp"
#include "sparse/lu.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "wavepipe/virtual_pipeline.hpp"

using namespace wavepipe;

namespace {

constexpr int kModeledThreads[] = {1, 2, 4, 8};

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

/// Min-of-repeats per-pass cost of `passes` calls to `body` — the usual
/// defence against scheduler noise in microsecond-scale measurements.
template <typename Body>
double MeasureSecondsPerPass(int passes, int repeats, Body&& body) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    util::ThreadCpuTimer timer;
    for (int p = 0; p < passes; ++p) body();
    best = std::min(best, timer.Seconds() / static_cast<double>(passes));
  }
  return best;
}

void JsonArray(std::FILE* f, const char* key, const double (&v)[4], const char* tail) {
  std::fprintf(f, "      \"%s\": [%.9e, %.9e, %.9e, %.9e]%s\n", key, v[0], v[1], v[2],
               v[3], tail);
}

}  // namespace

int main() {
  std::printf("=== Numeric refactorization: serial vs level-scheduled ===\n\n");

  auto suite = circuits::MakeBenchmarkSuite();

  util::Table table({"circuit", "kind", "n", "nnz(LU)", "levels", "widest",
                     "serial us", "1t ratio", "replay x2", "replay x4", "model x2",
                     "model x4"});

  std::FILE* json = std::fopen("BENCH_factor.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot open BENCH_factor.json for writing\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"threads_modeled\": [1, 2, 4, 8],\n  \"circuits\": [\n");

  bool all_within_5pct_at_1 = true;
  bool digital_mesh_beat_serial_at_2 = true;
  std::string largest_name;
  int largest_unknowns = 0;
  sparse::SparseLu::Stats largest_lu_stats;

  for (std::size_t ci = 0; ci < suite.size(); ++ci) {
    const auto& gen = suite[ci];
    const engine::MnaStructure mna(*gen.circuit);
    engine::SolveContext ctx(*gen.circuit, mna);
    const engine::NewtonInputs inputs = TransientInputs();
    SeedIterate(ctx, 0.2);
    engine::EvalDevices(ctx, inputs, /*limit_valid=*/false, /*first_iteration=*/true);

    sparse::SparseLu lu;
    lu.Factor(ctx.matrix);
    const sparse::SparseLu::Stats fstats = lu.stats();

    // Enough passes for stable thread-CPU timings on microsecond refactors.
    const int passes = std::max(
        1000, static_cast<int>(4'000'000 / (fstats.nnz_l + fstats.nnz_u + 1)));

    // The 1-thread "parallel" entry point must be indistinguishable from the
    // serial kernel (acceptance: within 5%) — the cost-model fallback routes
    // it straight to Refactor().  Container CPU interference comes in bursts
    // wider than one timing window, so estimate the ratio from PAIRED
    // back-to-back windows and take the median of the per-pair ratios: a
    // burst landing on one window of a pair produces an outlier ratio that
    // the median trims, instead of skewing a global min/mean.
    double serial_per_pass = 1e300;
    double fallback_per_pass = 1e300;
    std::vector<double> pair_ratios;
    for (int rep = 0; rep < 48; ++rep) {
      const double s = MeasureSecondsPerPass(passes, 1,
                                             [&] { lu.Refactor(ctx.matrix); });
      const double f = MeasureSecondsPerPass(passes, 1, [&] {
        lu.RefactorParallel(ctx.matrix, nullptr);
      });
      serial_per_pass = std::min(serial_per_pass, s);
      fallback_per_pass = std::min(fallback_per_pass, f);
      pair_ratios.push_back(f / s);
    }
    std::sort(pair_ratios.begin(), pair_ratios.end());
    const double one_thread_ratio = pair_ratios[pair_ratios.size() / 2];
    all_within_5pct_at_1 = all_within_5pct_at_1 && one_thread_ratio <= 1.05;

    // Serial triangular-solve cost for completeness (same units).
    std::vector<double> rhs(static_cast<std::size_t>(mna.dimension()), 1.0), ws;
    const double solve_per_pass = MeasureSecondsPerPass(passes, 3, [&] {
      std::fill(rhs.begin(), rhs.end(), 1.0);
      lu.Solve(rhs, ws);
    });

    // Measured per-flop rate calibrates both models.
    const double seconds_per_flop = serial_per_pass / lu.serial_refactor_flops();

    // Replay model: colored assembly phases feeding the exact column DAG,
    // list-scheduled on k virtual workers.  Assembly is costed at the
    // measured serial stamp rate per device.
    const double assembly_per_pass = MeasureSecondsPerPass(
        std::max(20, passes / 4), 2,
        [&] { engine::EvalDevices(ctx, inputs, false, true); });
    const double seconds_per_device =
        assembly_per_pass / static_cast<double>(gen.circuit->devices().size());
    const parallel::ColorSchedule schedule =
        parallel::BuildColorSchedule(*gen.circuit, mna);

    double replay_factor[4] = {0, 0, 0, 0};    // factor tasks only
    double replay_combined[4] = {0, 0, 0, 0};  // assembly -> factor pipeline
    for (int ti = 0; ti < 4; ++ti) {
      {
        pipeline::Ledger ledger;
        pipeline::AppendFactorTasks(ledger, lu, seconds_per_flop);
        replay_factor[ti] =
            pipeline::ReplayOnWorkers(ledger, kModeledThreads[ti]).makespan_seconds;
      }
      {
        pipeline::Ledger ledger;
        const pipeline::AppendedTasks assembly =
            pipeline::AppendAssemblyTasks(ledger, schedule, seconds_per_device);
        pipeline::AppendFactorTasks(ledger, lu, seconds_per_flop, assembly.tail);
        replay_combined[ti] =
            pipeline::ReplayOnWorkers(ledger, kModeledThreads[ti]).makespan_seconds;
      }
    }

    // Barrier-per-level cost model (the runtime fallback gate), flop units.
    double model_makespan[4];
    for (int ti = 0; ti < 4; ++ti) {
      model_makespan[ti] = lu.ModelRefactorMakespanFlops(kModeledThreads[ti]);
    }

    const double replay_speedup2 = replay_factor[0] / replay_factor[1];
    const double replay_speedup4 = replay_factor[0] / replay_factor[2];
    const bool beats_at_2 = replay_speedup2 > 1.0;
    const bool is_digital_or_mesh =
        gen.kind == "digital" || gen.name.find("mesh") != std::string::npos;
    if (is_digital_or_mesh) {
      digital_mesh_beat_serial_at_2 = digital_mesh_beat_serial_at_2 && beats_at_2;
    }
    if (mna.dimension() > largest_unknowns) {
      largest_unknowns = mna.dimension();
      largest_name = gen.name;
      largest_lu_stats = lu.stats();
    }

    table.AddRow({gen.name, gen.kind, std::to_string(mna.dimension()),
                  std::to_string(fstats.nnz_l + fstats.nnz_u),
                  std::to_string(fstats.factor_levels),
                  std::to_string(fstats.factor_widest_level),
                  util::Table::Cell(serial_per_pass * 1e6, 3),
                  util::Table::Cell(one_thread_ratio, 3),
                  util::Table::Cell(replay_speedup2, 3),
                  util::Table::Cell(replay_speedup4, 3),
                  util::Table::Cell(fstats.modeled_refactor_speedup2, 3),
                  util::Table::Cell(fstats.modeled_refactor_speedup4, 3)});

    std::fprintf(json, "    {\n");
    std::fprintf(json, "      \"name\": \"%s\",\n", gen.name.c_str());
    std::fprintf(json, "      \"kind\": \"%s\",\n", gen.kind.c_str());
    std::fprintf(json, "      \"unknowns\": %d,\n", mna.dimension());
    std::fprintf(json, "      \"nnz_matrix\": %zu,\n", mna.nnz());
    std::fprintf(json, "      \"nnz_factors\": %zu,\n", fstats.nnz_l + fstats.nnz_u);
    std::fprintf(json, "      \"factor_levels\": %d,\n", fstats.factor_levels);
    std::fprintf(json, "      \"factor_widest_level\": %zu,\n",
                 fstats.factor_widest_level);
    std::fprintf(json, "      \"solve_fwd_levels\": %d,\n", fstats.solve_fwd_levels);
    std::fprintf(json, "      \"solve_bwd_levels\": %d,\n", fstats.solve_bwd_levels);
    std::fprintf(json, "      \"passes\": %d,\n", passes);
    std::fprintf(json, "      \"serial_refactor_seconds_per_pass\": %.9e,\n",
                 serial_per_pass);
    std::fprintf(json, "      \"fallback_1thread_seconds_per_pass\": %.9e,\n",
                 fallback_per_pass);
    std::fprintf(json, "      \"one_thread_overhead_ratio\": %.6f,\n", one_thread_ratio);
    std::fprintf(json, "      \"serial_solve_seconds_per_pass\": %.9e,\n",
                 solve_per_pass);
    std::fprintf(json, "      \"serial_refactor_flops\": %.1f,\n",
                 lu.serial_refactor_flops());
    JsonArray(json, "replay_factor_makespan_seconds", replay_factor, ",");
    JsonArray(json, "replay_assembly_factor_makespan_seconds", replay_combined, ",");
    JsonArray(json, "barrier_model_makespan_flops", model_makespan, ",");
    std::fprintf(json, "      \"replay_speedup_2_threads\": %.6f,\n", replay_speedup2);
    std::fprintf(json, "      \"replay_speedup_4_threads\": %.6f,\n", replay_speedup4);
    std::fprintf(json, "      \"barrier_model_speedup_2_threads\": %.6f,\n",
                 fstats.modeled_refactor_speedup2);
    std::fprintf(json, "      \"barrier_model_speedup_4_threads\": %.6f,\n",
                 fstats.modeled_refactor_speedup4);
    std::fprintf(json, "      \"level_beats_serial_at_2_threads\": %s\n",
                 beats_at_2 ? "true" : "false");
    std::fprintf(json, "    }%s\n", ci + 1 < suite.size() ? "," : "");
  }

  std::fprintf(json, "  ],\n");
  // Same counter vocabulary as run_stats.json (sparse_lu.*) — shared schema
  // with the CLI stats output and tools/check_bench.py.
  {
    util::telemetry::CounterRegistry registry;
    largest_lu_stats.ExportCounters(registry);
    std::fprintf(json, "  \"largest_circuit\": \"%s\",\n", largest_name.c_str());
    std::fprintf(json, "  \"largest_circuit_sparse_lu_counters\": ");
    bench::WriteCountersJson(json, registry, 2);
    std::fprintf(json, ",\n");
  }
  std::fprintf(json, "  \"all_circuits_within_5pct_of_serial_at_1_thread\": %s,\n",
               all_within_5pct_at_1 ? "true" : "false");
  std::fprintf(json, "  \"digital_mesh_beat_serial_at_2_threads\": %s\n",
               digital_mesh_beat_serial_at_2 ? "true" : "false");
  std::fprintf(json, "}\n");
  std::fclose(json);

  bench::Emit(table, "bench_factor");
  std::printf("(json written to BENCH_factor.json)\n");
  std::printf(
      "Expected shape: wide elimination DAGs (digital chains, RC meshes) replay\n"
      "faster than serial at 2+ workers; deep chains (ladders, small analog loops)\n"
      "pin the replay at ~1x and the barrier cost model keeps them on the serial\n"
      "kernel at runtime, so the 1-thread ratio stays ~1.0 everywhere.\n");
  return 0;
}

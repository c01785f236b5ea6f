// Assembly-strategy bench: serial device loop vs private-buffer reduction vs
// conflict-free colored stamping (parallel/coloring.hpp), over the standard
// benchmark suite.
//
// Each strategy is measured at 1 thread (per-phase thread-CPU seconds over
// many assembly passes), then projected to k workers with the virtual-time
// model ModelAssemblySeconds() — the same modeled methodology the pipeline
// benches use (a diagnostic; perfbench/ measures wall clock end to end).  Results go to BENCH_assembly.json (run from the
// repo root so the committed copy refreshes in place).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "circuits/generators.hpp"
#include "engine/newton.hpp"
#include "parallel/coloring.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

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

void SeedIterate(engine::SolveContext& ctx) {
  for (std::size_t i = 0; i < ctx.x.size(); ++i) {
    ctx.x[i] = 0.7 * std::sin(0.37 * static_cast<double>(i) + 0.2);
  }
}

struct StrategyMeasurement {
  engine::AssemblyStats stats;           // accumulated over all passes
  double seconds_per_pass = 0.0;         // measured, 1 thread
  double modeled_per_pass[4] = {0, 0, 0, 0};  // at kModeledThreads
};

/// Runs `passes` assembly passes through the given assembler (or, with a
/// null mode marker, the serial device loop) and returns per-pass phase
/// costs.
StrategyMeasurement MeasureSerial(engine::SolveContext& ctx,
                                  const engine::NewtonInputs& inputs, int passes) {
  StrategyMeasurement m;
  m.stats.strategy = "serial";
  util::ThreadCpuTimer timer;
  for (int p = 0; p < passes; ++p) {
    engine::EvalDevices(ctx, inputs, /*limit_valid=*/false, /*first_iteration=*/true);
  }
  // The serial loop has no phase split; book everything as stamping.
  m.stats.stamp_seconds = timer.Seconds();
  m.stats.passes = static_cast<std::uint64_t>(passes);
  return m;
}

StrategyMeasurement MeasureStrategy(const circuits::GeneratedCircuit& gen,
                                    const engine::MnaStructure& mna,
                                    parallel::AssemblyMode mode,
                                    engine::SolveContext& ctx,
                                    const engine::NewtonInputs& inputs, int passes) {
  const auto assembler = parallel::MakeAssembler(mode, *gen.circuit, mna, /*threads=*/1);
  for (int p = 0; p < passes; ++p) {
    assembler->Assemble(ctx, inputs, /*limit_valid=*/false, /*first_iteration=*/true);
  }
  StrategyMeasurement m;
  m.stats = assembler->stats();
  return m;
}

void FinishMeasurement(StrategyMeasurement& m) {
  const double passes = static_cast<double>(m.stats.passes);
  m.seconds_per_pass =
      (m.stats.zero_seconds + m.stats.stamp_seconds + m.stats.merge_seconds) / passes;
  for (int i = 0; i < 4; ++i) {
    m.modeled_per_pass[i] =
        parallel::ModelAssemblySeconds(m.stats, kModeledThreads[i]) / passes;
  }
}

void JsonArray(std::FILE* f, const char* key, const double (&v)[4], const char* tail) {
  std::fprintf(f, "      \"%s\": [%.9e, %.9e, %.9e, %.9e]%s\n", key, v[0], v[1], v[2],
               v[3], tail);
}

}  // namespace

int main() {
  std::printf("=== Assembly strategies: serial vs reduction vs colored ===\n\n");

  auto suite = circuits::MakeBenchmarkSuite();

  util::Table table({"circuit", "devices", "nnz", "colors", "serial us", "red us",
                     "col us", "red x2", "col x2", "red x4", "col x4"});

  std::FILE* json = std::fopen("BENCH_assembly.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot open BENCH_assembly.json for writing\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"threads_modeled\": [1, 2, 4, 8],\n  \"circuits\": [\n");

  std::string largest_name;
  std::size_t largest_nnz = 0;
  bool largest_colored_wins_at_2 = false;
  engine::AssemblyStats largest_colored_stats;

  for (std::size_t ci = 0; ci < suite.size(); ++ci) {
    const auto& gen = suite[ci];
    const engine::MnaStructure mna(*gen.circuit);
    const parallel::ColorSchedule schedule = parallel::BuildColorSchedule(*gen.circuit, mna);

    // Enough passes for stable thread-CPU timings on microsecond stamps.
    const int passes =
        std::max(200, static_cast<int>(2'000'000 / (mna.nnz() + 1)));

    engine::SolveContext ctx(*gen.circuit, mna);
    SeedIterate(ctx);
    const engine::NewtonInputs inputs = TransientInputs();

    StrategyMeasurement serial = MeasureSerial(ctx, inputs, passes);
    StrategyMeasurement reduction =
        MeasureStrategy(gen, mna, parallel::AssemblyMode::kReduction, ctx, inputs, passes);
    StrategyMeasurement colored =
        MeasureStrategy(gen, mna, parallel::AssemblyMode::kColored, ctx, inputs, passes);
    FinishMeasurement(serial);
    FinishMeasurement(reduction);
    FinishMeasurement(colored);

    const bool colored_wins_at_2 = colored.modeled_per_pass[1] < reduction.modeled_per_pass[1];
    if (mna.nnz() > largest_nnz) {
      largest_nnz = mna.nnz();
      largest_name = gen.name;
      largest_colored_wins_at_2 = colored_wins_at_2;
      largest_colored_stats = colored.stats;
    }

    table.AddRow({gen.name, std::to_string(gen.circuit->devices().size()),
                  std::to_string(mna.nnz()), std::to_string(schedule.num_colors()),
                  util::Table::Cell(serial.seconds_per_pass * 1e6, 3),
                  util::Table::Cell(reduction.seconds_per_pass * 1e6, 3),
                  util::Table::Cell(colored.seconds_per_pass * 1e6, 3),
                  util::Table::Cell(serial.seconds_per_pass / reduction.modeled_per_pass[1], 3),
                  util::Table::Cell(serial.seconds_per_pass / colored.modeled_per_pass[1], 3),
                  util::Table::Cell(serial.seconds_per_pass / reduction.modeled_per_pass[2], 3),
                  util::Table::Cell(serial.seconds_per_pass / colored.modeled_per_pass[2], 3)});

    std::fprintf(json, "    {\n");
    std::fprintf(json, "      \"name\": \"%s\",\n", gen.name.c_str());
    std::fprintf(json, "      \"devices\": %zu,\n", gen.circuit->devices().size());
    std::fprintf(json, "      \"unknowns\": %d,\n", mna.dimension());
    std::fprintf(json, "      \"nnz\": %zu,\n", mna.nnz());
    std::fprintf(json, "      \"colors\": %d,\n", schedule.num_colors());
    std::fprintf(json, "      \"conflict_edges\": %zu,\n", schedule.conflict_edges());
    std::fprintf(json, "      \"max_degree\": %d,\n", schedule.max_degree());
    std::fprintf(json, "      \"passes\": %d,\n", passes);
    std::fprintf(json,
                 "      \"measured_seconds_per_pass\": {\"serial\": %.9e, "
                 "\"reduction\": %.9e, \"colored\": %.9e},\n",
                 serial.seconds_per_pass, reduction.seconds_per_pass,
                 colored.seconds_per_pass);
    JsonArray(json, "modeled_reduction_seconds_per_pass", reduction.modeled_per_pass, ",");
    JsonArray(json, "modeled_colored_seconds_per_pass", colored.modeled_per_pass, ",");
    std::fprintf(json, "      \"colored_beats_reduction_at_2_threads\": %s\n",
                 colored_wins_at_2 ? "true" : "false");
    std::fprintf(json, "    }%s\n", ci + 1 < suite.size() ? "," : "");
  }

  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"largest_circuit\": \"%s\",\n", largest_name.c_str());
  // Same counter vocabulary as run_stats.json (assembly.*) — shared schema
  // with the CLI stats output and tools/check_bench.py.
  {
    util::telemetry::CounterRegistry registry;
    largest_colored_stats.ExportCounters(registry);
    std::fprintf(json, "  \"largest_circuit_colored_counters\": ");
    bench::WriteCountersJson(json, registry, 2);
    std::fprintf(json, ",\n");
  }
  std::fprintf(json, "  \"largest_circuit_colored_beats_reduction_at_2_threads\": %s\n",
               largest_colored_wins_at_2 ? "true" : "false");
  std::fprintf(json, "}\n");
  std::fclose(json);

  bench::Emit(table, "bench_assembly");
  std::printf("(json written to BENCH_assembly.json)\n");
  std::printf(
      "Expected shape: colored assembly removes the O(nnz x k) reduction sweep, so\n"
      "its modeled multi-thread time beats reduction everywhere the conflict graph\n"
      "colors well; supply-rail cliques (MOS circuits) shrink but don't erase the\n"
      "gap at 1-thread measurement granularity.\n");
  return 0;
}

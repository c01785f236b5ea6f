// Durable-run overhead bench: what periodic checkpointing costs a run.
//
// Methodology (a modeled diagnostic; perfbench/ measures wall clock end to
// end — see DESIGN.md "Environment substitutions"):
// the gated number is MODELED and deterministic —
//
//   modeled_overhead = (bytes_per_checkpoint / kModeledDiskBps + kModeledFsync)
//                      / checkpoint cadence in seconds
//
// i.e. the fraction of wall time a run at the DEFAULT wall cadence
// (checkpoint_every_seconds = 15) spends serializing + writing one snapshot,
// assuming a pessimistic ~100 MB/s disk and a fixed per-write fsync cost.
// bytes_per_checkpoint is a pure function of the circuit and the accepted
// trajectory (both deterministic), so the JSON is replayable and
// check_bench.py gates the boolean `modeled_overhead_within_budget`
// (<= 2%) plus the bit-identity guard `resumed_run_bit_identical`.
// Measured wall numbers are reported for context and never gated.
//
// Results go to BENCH_resilience.json (run from the repo root so the
// committed copy refreshes in place).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "engine/resilience.hpp"
#include "util/checkpoint.hpp"

using namespace wavepipe;

namespace {

/// Pessimistic sustained write throughput + per-write fsync latency for the
/// overhead model (a 2020s laptop SSD does 10x better on both).
constexpr double kModeledDiskBps = 100.0 * 1024.0 * 1024.0;
constexpr double kModeledFsyncSeconds = 0.005;
/// The default wall cadence (engine/options.hpp) the model amortizes over.
constexpr double kDefaultCadenceSeconds = 15.0;
constexpr double kOverheadBudget = 0.02;

double ModeledOverhead(double bytes_per_checkpoint) {
  return (bytes_per_checkpoint / kModeledDiskBps + kModeledFsyncSeconds) /
         kDefaultCadenceSeconds;
}

struct EngineOverhead {
  std::string name;
  double plain_wall = 0.0;
  double ckpt_wall = 0.0;
  std::uint64_t writes = 0;
  double bytes_last = 0.0;
  double modeled_overhead = 0.0;
  bool bit_identical = true;
};

bool TracesIdentical(const engine::Trace& a, const engine::Trace& b) {
  if (a.num_samples() != b.num_samples()) return false;
  for (std::size_t s = 0; s < a.num_samples(); ++s) {
    if (a.times()[s] != b.times()[s]) return false;
    for (std::size_t p = 0; p < a.probes().size(); ++p) {
      if (a.value(s, p) != b.value(s, p)) return false;
    }
  }
  return true;
}

void RemoveSlots(const std::string& base) {
  std::remove((base + ".a").c_str());
  std::remove((base + ".b").c_str());
}

/// Runs `gen` twice on the serial engine — plain and with per-step
/// checkpointing (the worst case: every accepted step serializes) — and once
/// more resumed from a mid-run snapshot to pin bit-identity.
EngineOverhead MeasureSerial(const circuits::GeneratedCircuit& gen,
                             const engine::MnaStructure& mna,
                             const std::string& base) {
  EngineOverhead out;
  out.name = "serial";

  util::WallTimer plain_timer;
  const auto plain = engine::RunTransientSerial(*gen.circuit, mna, gen.spec, {});
  out.plain_wall = plain_timer.Seconds();

  RemoveSlots(base);
  engine::SimOptions sim;
  sim.resilience.checkpoint_path = base;
  sim.resilience.checkpoint_every_steps = 1;  // worst case: every step
  util::WallTimer ckpt_timer;
  const auto with_ckpt = engine::RunTransientSerial(*gen.circuit, mna, gen.spec, sim);
  out.ckpt_wall = ckpt_timer.Seconds();
  out.writes = with_ckpt.resilience.ckpt_writes;
  out.bytes_last = static_cast<double>(with_ckpt.resilience.ckpt_bytes_last);
  out.modeled_overhead = ModeledOverhead(out.bytes_last);
  out.bit_identical = TracesIdentical(plain.trace, with_ckpt.trace);

  // Kill-and-resume: stop mid-run on the step budget, resume, compare.
  RemoveSlots(base);
  engine::SimOptions first = sim;
  first.resilience.max_steps = plain.stats.steps_accepted / 2;
  (void)engine::RunTransientSerial(*gen.circuit, mna, gen.spec, first);
  const engine::TransientCheckpoint ck = engine::LoadCheckpoint(base);
  engine::SimOptions second;
  second.resilience.resume = &ck;
  const auto resumed = engine::RunTransientSerial(*gen.circuit, mna, gen.spec, second);
  out.bit_identical =
      out.bit_identical && resumed.completed && TracesIdentical(plain.trace, resumed.trace);
  RemoveSlots(base);
  return out;
}

/// Same shape for the pipeline engine (combined scheme, round-barrier
/// checkpoints).
EngineOverhead MeasurePipeline(const circuits::GeneratedCircuit& gen,
                               const engine::MnaStructure& mna,
                               const std::string& base) {
  EngineOverhead out;
  out.name = "pipeline_combined";
  pipeline::WavePipeOptions options;
  options.scheme = pipeline::Scheme::kCombined;
  options.threads = 3;

  util::WallTimer plain_timer;
  const auto plain = pipeline::RunWavePipe(*gen.circuit, mna, gen.spec, options);
  out.plain_wall = plain_timer.Seconds();

  RemoveSlots(base);
  pipeline::WavePipeOptions with = options;
  with.sim.resilience.checkpoint_path = base;
  with.sim.resilience.checkpoint_every_steps = 1;
  util::WallTimer ckpt_timer;
  const auto with_ckpt = pipeline::RunWavePipe(*gen.circuit, mna, gen.spec, with);
  out.ckpt_wall = ckpt_timer.Seconds();
  out.writes = with_ckpt.resilience.ckpt_writes;
  out.bytes_last = static_cast<double>(with_ckpt.resilience.ckpt_bytes_last);
  out.modeled_overhead = ModeledOverhead(out.bytes_last);
  out.bit_identical = TracesIdentical(plain.trace, with_ckpt.trace);

  RemoveSlots(base);
  pipeline::WavePipeOptions first = with;
  first.sim.resilience.max_steps = plain.stats.steps_accepted / 2;
  (void)pipeline::RunWavePipe(*gen.circuit, mna, gen.spec, first);
  const engine::TransientCheckpoint ck = engine::LoadCheckpoint(base);
  pipeline::WavePipeOptions second = options;
  second.sim.resilience.resume = &ck;
  const auto resumed = pipeline::RunWavePipe(*gen.circuit, mna, gen.spec, second);
  out.bit_identical =
      out.bit_identical && resumed.completed && TracesIdentical(plain.trace, resumed.trace);
  RemoveSlots(base);
  return out;
}

void WriteEngineJson(std::FILE* json, const EngineOverhead& m, bool last) {
  std::fprintf(json, "    {\n");
  std::fprintf(json, "      \"name\": \"%s\",\n", m.name.c_str());
  std::fprintf(json, "      \"bytes_per_checkpoint\": %.0f,\n", m.bytes_last);
  std::fprintf(json, "      \"checkpoint_writes\": %llu,\n",
               static_cast<unsigned long long>(m.writes));
  std::fprintf(json, "      \"modeled_overhead_at_default_cadence\": %.6f,\n",
               m.modeled_overhead);
  std::fprintf(json, "      \"modeled_overhead_within_budget\": %s,\n",
               m.modeled_overhead <= kOverheadBudget ? "true" : "false");
  std::fprintf(json, "      \"resumed_run_bit_identical\": %s,\n",
               m.bit_identical ? "true" : "false");
  std::fprintf(json, "      \"plain_wall_seconds\": %.6f,\n", m.plain_wall);
  std::fprintf(json, "      \"ckpt_every_step_wall_seconds\": %.6f\n", m.ckpt_wall);
  std::fprintf(json, "    }%s\n", last ? "" : ",");
}

/// Smoke mode for CI: tiny circuit, engagement + bit-identity + budget.
int RunSmoke() {
  const auto gen = circuits::MakeRcMesh(8, 8);
  const engine::MnaStructure mna(*gen.circuit);
  const std::string base = "bench_resilience_smoke.ckpt";

  int failures = 0;
  const auto check = [&](bool ok, const char* what) {
    std::printf("  %-52s %s\n", what, ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  };

  std::printf("bench_resilience --smoke: %s (n=%d)\n", gen.name.c_str(),
              mna.dimension());
  const EngineOverhead serial = MeasureSerial(gen, mna, base);
  check(serial.writes > 0, "checkpoint sink engaged (writes > 0)");
  check(serial.bytes_last > 0, "checkpoint payload non-empty");
  check(serial.bit_identical, "checkpointed + resumed runs bit-identical");
  check(serial.modeled_overhead <= kOverheadBudget,
        "modeled overhead within 2% budget");

  if (failures) {
    std::fprintf(stderr, "bench_resilience --smoke: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("bench_resilience --smoke: all checks passed\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && !std::strcmp(argv[1], "--smoke")) return RunSmoke();

  std::printf("=== Durable runs: checkpoint overhead ===\n\n");

  const auto gen = circuits::MakeRcMesh(24, 24);
  const engine::MnaStructure mna(*gen.circuit);
  std::printf("mesh %s: %d unknowns\n\n", gen.name.c_str(), mna.dimension());

  const std::string base = "bench_resilience.ckpt";
  const std::vector<EngineOverhead> engines = {MeasureSerial(gen, mna, base),
                                               MeasurePipeline(gen, mna, base)};

  util::Table table({"engine", "ckpt bytes", "writes", "modeled ovh",
                     "within 2%", "bit-identical", "plain wall s",
                     "ckpt wall s"});
  bool all_within = true;
  bool all_identical = true;
  for (const auto& m : engines) {
    all_within = all_within && m.modeled_overhead <= kOverheadBudget;
    all_identical = all_identical && m.bit_identical;
    table.AddRow({m.name, util::Table::Cell(m.bytes_last, 0),
                  std::to_string(m.writes),
                  util::Table::Cell(m.modeled_overhead, 6),
                  m.modeled_overhead <= kOverheadBudget ? "yes" : "NO",
                  m.bit_identical ? "yes" : "NO",
                  util::Table::Cell(m.plain_wall, 4),
                  util::Table::Cell(m.ckpt_wall, 4)});
  }
  bench::Emit(table, "bench_resilience");

  std::FILE* json = std::fopen("BENCH_resilience.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot open BENCH_resilience.json for writing\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"mesh\": \"%s\",\n", gen.name.c_str());
  std::fprintf(json, "  \"unknowns\": %d,\n", mna.dimension());
  std::fprintf(json, "  \"modeled_disk_bytes_per_second\": %.0f,\n", kModeledDiskBps);
  std::fprintf(json, "  \"modeled_fsync_seconds\": %.3f,\n", kModeledFsyncSeconds);
  std::fprintf(json, "  \"default_cadence_seconds\": %.1f,\n", kDefaultCadenceSeconds);
  std::fprintf(json, "  \"overhead_budget\": %.2f,\n", kOverheadBudget);
  std::fprintf(json, "  \"engines\": [\n");
  for (std::size_t i = 0; i < engines.size(); ++i) {
    WriteEngineJson(json, engines[i], i + 1 == engines.size());
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"modeled_overhead_within_budget\": %s,\n",
               all_within ? "true" : "false");
  std::fprintf(json, "  \"resumed_run_bit_identical\": %s\n",
               all_identical ? "true" : "false");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("(json written to BENCH_resilience.json)\n");
  return all_within && all_identical ? 0 : 1;
}

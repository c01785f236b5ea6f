// Device latency bypass + chord-Newton acceleration bench: end-to-end serial
// transient wall time with the accelerations OFF (the plain engine, whose
// exact factor cache already serves repeated linear Jacobians) vs ON (bypass
// + chord factor reuse), over the Table-1 benchmark suite.
//
// Methodology: min-of-repeats wall time per configuration (scheduler-noise
// defence), identical specs and step control on both sides; accuracy is the
// max deviation of the accepted probe traces.  Results go to
// BENCH_bypass.json (run from the repo root so the committed copy refreshes
// in place).
//
// `--smoke` runs one tiny circuit once per configuration and exits non-zero
// when the accelerations stop engaging or regress the iteration/refactor
// economy — a ctest-visible guard (label bench-smoke) that costs seconds.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "circuits/generators.hpp"
#include "engine/transient.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace wavepipe;

namespace {

engine::SimOptions AccelOptions() {
  engine::SimOptions sim;
  sim.device_bypass = true;
  sim.chord_newton = true;
  return sim;
}

struct RunMetrics {
  double wall_seconds = 1e300;  ///< min over repeats
  engine::TransientResult result;  ///< from the last repeat (deterministic)
};

RunMetrics RunRepeated(const circuits::GeneratedCircuit& gen,
                       const engine::MnaStructure& mna, const engine::SimOptions& sim,
                       int repeats) {
  RunMetrics m;
  for (int r = 0; r < repeats; ++r) {
    util::WallTimer timer;
    auto result = engine::RunTransientSerial(*gen.circuit, mna, gen.spec, sim);
    m.wall_seconds = std::min(m.wall_seconds, timer.Seconds());
    m.result = std::move(result);
  }
  return m;
}

bool TracesBitIdentical(const engine::Trace& a, const engine::Trace& b) {
  if (a.num_samples() != b.num_samples()) return false;
  for (std::size_t i = 0; i < a.num_samples(); ++i) {
    if (a.time(i) != b.time(i)) return false;
    for (std::size_t p = 0; p < a.probes().size(); ++p) {
      if (a.value(i, p) != b.value(i, p)) return false;
    }
  }
  return true;
}

int RunSmoke() {
  // One tiny digital circuit, one run per configuration: the gate is about
  // the accelerations ENGAGING and not regressing the solve economy, not
  // about wall time (which a loaded CI machine can't promise).
  const auto gen = circuits::MakeInverterChain(8);
  const engine::MnaStructure mna(*gen.circuit);

  const auto base = engine::RunTransientSerial(*gen.circuit, mna, gen.spec, {});
  engine::SimOptions accel_options = AccelOptions();
  // The smoke circuit factors fill-free; force chord past the cost gate so
  // the engagement counters are exercised.
  accel_options.chord_fill_ratio = 0.0;
  const auto accel =
      engine::RunTransientSerial(*gen.circuit, mna, gen.spec, accel_options);

  int failures = 0;
  auto require = [&](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) ++failures;
  };

  std::printf("bench_bypass --smoke: %s\n", gen.name.c_str());
  require(base.completed, "baseline transient completed");
  require(accel.completed, "accelerated transient completed");
  if (base.completed && accel.completed) {
    const double deviation = engine::Trace::MaxDeviationAll(base.trace, accel.trace);
    std::printf("  deviation %.3g V, iters %llu -> %llu, bypassed %llu/%llu, "
                "chord %llu, forced refactors %llu\n",
                deviation,
                static_cast<unsigned long long>(base.stats.newton_iterations),
                static_cast<unsigned long long>(accel.stats.newton_iterations),
                static_cast<unsigned long long>(accel.stats.bypassed_evals),
                static_cast<unsigned long long>(accel.stats.bypassed_evals +
                                                accel.stats.bypass_full_evals),
                static_cast<unsigned long long>(accel.stats.chord_solves),
                static_cast<unsigned long long>(accel.stats.forced_refactors));
    require(deviation < 0.15, "accepted trace within LTE-tolerance scale");
    require(accel.stats.bypassed_evals > 0, "bypass engaged (replayed evals > 0)");
    require(accel.stats.chord_solves > 0, "chord reuse engaged (chord solves > 0)");
    // Newton-iteration economy: chord iterates are allowed to add cheap
    // iterations, but a blow-up means the safety net stopped working.
    require(accel.stats.newton_iterations <=
                base.stats.newton_iterations + base.stats.newton_iterations / 2 + 50,
            "Newton iterations within 1.5x + 50 of baseline");
    // Every forced refactor burns a factorization; more of them than Newton
    // iterations means the rate monitor is thrashing.
    require(accel.stats.forced_refactors <= accel.stats.newton_iterations,
            "forced refactors bounded by Newton iterations");
    // A switching digital chain gives chord little to reuse; the adaptive
    // backoff must keep the attempts close to cost-neutral.
    require(accel.stats.lu_full_factors + accel.stats.lu_refactors <=
                (base.stats.lu_full_factors + base.stats.lu_refactors) * 11 / 10 + 10,
            "factorizations within 1.1x of baseline");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && !std::strcmp(argv[1], "--smoke")) return RunSmoke();

  std::printf("=== Device bypass + chord Newton: end-to-end serial transient ===\n\n");
  const int repeats = 5;

  auto suite = circuits::MakeBenchmarkSuite();
  // Larger meshes: the chord win grows with LU fill, and table-1's 16x16
  // mesh is the smallest member of that family.
  suite.push_back(circuits::MakeRcMesh(24, 24));
  suite.push_back(circuits::MakeRcMesh(32, 32));
  util::Table table({"circuit", "kind", "n", "steps", "base ms", "accel ms", "speedup",
                     "bypassed", "chord", "forced", "deviation"});

  std::FILE* json = std::fopen("BENCH_bypass.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot open BENCH_bypass.json for writing\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"repeats\": %d,\n  \"circuits\": [\n", repeats);

  int circuits_at_1p2 = 0;
  bool linear_baseline_reuses_factors = true;
  bool disabled_paths_bit_identical = true;
  bool all_within_tolerance = true;
  std::string largest_name;
  int largest_unknowns = 0;
  engine::TransientStats largest_accel_stats;

  for (std::size_t ci = 0; ci < suite.size(); ++ci) {
    const auto& gen = suite[ci];
    const engine::MnaStructure mna(*gen.circuit);

    const RunMetrics base = RunRepeated(gen, mna, {}, repeats);
    const RunMetrics accel = RunRepeated(gen, mna, AccelOptions(), repeats);

    // "Disabled" must mean DISABLED: a re-run with default options after the
    // accelerated runs reproduces the baseline trace bit for bit.
    const auto replay = engine::RunTransientSerial(*gen.circuit, mna, gen.spec, {});
    const bool bit_identical =
        TracesBitIdentical(base.result.trace, replay.trace);
    disabled_paths_bit_identical = disabled_paths_bit_identical && bit_identical;

    const auto& bs = base.result.stats;
    const auto& as = accel.result.stats;
    const double deviation =
        engine::Trace::MaxDeviationAll(base.result.trace, accel.result.trace);
    const double speedup = base.wall_seconds / accel.wall_seconds;
    const std::uint64_t bypass_total = as.bypassed_evals + as.bypass_full_evals;
    const double bypass_fraction =
        bypass_total > 0 ? static_cast<double>(as.bypassed_evals) /
                               static_cast<double>(bypass_total)
                         : 0.0;
    // LTE-tolerance-scale accuracy gate, matched to the equivalence tests.
    // Switching and autonomous circuits get the wider gate: an oscillator
    // turns any LTE-scale perturbation into accumulated phase drift, which
    // reads as amplitude deviation at matched sample times.
    const double tolerance = gen.kind == "linear" ? 0.08 : 0.15;
    if (speedup >= 1.2) ++circuits_at_1p2;
    // The baseline itself serves repeated Jacobians from the exact factor
    // cache on every linear circuit (engine/factor_cache.hpp).
    if (gen.kind == "linear" && bs.factor_cache.hits == 0) {
      linear_baseline_reuses_factors = false;
    }
    all_within_tolerance = all_within_tolerance && deviation < tolerance;
    if (mna.dimension() > largest_unknowns) {
      largest_unknowns = mna.dimension();
      largest_name = gen.name;
      largest_accel_stats = as;
    }

    table.AddRow({gen.name, gen.kind, std::to_string(mna.dimension()),
                  std::to_string(as.steps_accepted),
                  util::Table::Cell(base.wall_seconds * 1e3, 2),
                  util::Table::Cell(accel.wall_seconds * 1e3, 2),
                  util::Table::Cell(speedup, 3),
                  util::Table::Cell(100.0 * bypass_fraction, 1) + "%",
                  std::to_string(as.chord_solves), std::to_string(as.forced_refactors),
                  util::Table::Cell(deviation, 4)});

    std::fprintf(json, "    {\n");
    std::fprintf(json, "      \"name\": \"%s\",\n", gen.name.c_str());
    std::fprintf(json, "      \"kind\": \"%s\",\n", gen.kind.c_str());
    std::fprintf(json, "      \"unknowns\": %d,\n", mna.dimension());
    std::fprintf(json, "      \"steps_accepted\": %zu,\n", as.steps_accepted);
    std::fprintf(json, "      \"baseline_wall_seconds\": %.9e,\n", base.wall_seconds);
    std::fprintf(json, "      \"accel_wall_seconds\": %.9e,\n", accel.wall_seconds);
    std::fprintf(json, "      \"speedup\": %.6f,\n", speedup);
    std::fprintf(json, "      \"baseline_newton_iterations\": %llu,\n",
                 static_cast<unsigned long long>(bs.newton_iterations));
    std::fprintf(json, "      \"accel_newton_iterations\": %llu,\n",
                 static_cast<unsigned long long>(as.newton_iterations));
    std::fprintf(json, "      \"baseline_factorizations\": %llu,\n",
                 static_cast<unsigned long long>(bs.lu_full_factors + bs.lu_refactors));
    std::fprintf(json, "      \"accel_factorizations\": %llu,\n",
                 static_cast<unsigned long long>(as.lu_full_factors + as.lu_refactors));
    std::fprintf(json, "      \"baseline_factor_cache_hits\": %llu,\n",
                 static_cast<unsigned long long>(bs.factor_cache.hits));
    std::fprintf(json, "      \"accel_factor_cache_hits\": %llu,\n",
                 static_cast<unsigned long long>(as.factor_cache.hits));
    std::fprintf(json, "      \"bypassed_evals\": %llu,\n",
                 static_cast<unsigned long long>(as.bypassed_evals));
    std::fprintf(json, "      \"bypass_full_evals\": %llu,\n",
                 static_cast<unsigned long long>(as.bypass_full_evals));
    std::fprintf(json, "      \"bypass_fraction\": %.6f,\n", bypass_fraction);
    std::fprintf(json, "      \"chord_solves\": %llu,\n",
                 static_cast<unsigned long long>(as.chord_solves));
    std::fprintf(json, "      \"forced_refactors\": %llu,\n",
                 static_cast<unsigned long long>(as.forced_refactors));
    std::fprintf(json, "      \"max_deviation_volts\": %.9e,\n", deviation);
    std::fprintf(json, "      \"deviation_tolerance_volts\": %.3f,\n", tolerance);
    std::fprintf(json, "      \"disabled_rerun_bit_identical\": %s,\n",
                 bit_identical ? "true" : "false");
    std::fprintf(json, "      \"speedup_at_least_1p2\": %s\n",
                 speedup >= 1.2 ? "true" : "false");
    std::fprintf(json, "    }%s\n", ci + 1 < suite.size() ? "," : "");
  }

  std::fprintf(json, "  ],\n");
  // Same counter vocabulary as run_stats.json (transient.* / lu.*), so
  // tools/check_bench.py and the CLI stats consumers share one schema.
  {
    util::telemetry::CounterRegistry registry;
    largest_accel_stats.ExportCounters(registry);
    std::fprintf(json, "  \"largest_circuit\": \"%s\",\n", largest_name.c_str());
    std::fprintf(json, "  \"largest_circuit_accel_counters\": ");
    bench::WriteCountersJson(json, registry, 2);
    std::fprintf(json, ",\n");
  }
  std::fprintf(json, "  \"circuits_at_or_above_1p2_speedup\": %d,\n", circuits_at_1p2);
  std::fprintf(json, "  \"speedup_1p2_on_at_least_two_circuits\": %s,\n",
               circuits_at_1p2 >= 2 ? "true" : "false");
  std::fprintf(json, "  \"linear_baseline_reuses_factors\": %s,\n",
               linear_baseline_reuses_factors ? "true" : "false");
  std::fprintf(json, "  \"all_traces_within_tolerance\": %s,\n",
               all_within_tolerance ? "true" : "false");
  std::fprintf(json, "  \"disabled_paths_bit_identical\": %s\n",
               disabled_paths_bit_identical ? "true" : "false");
  std::fprintf(json, "}\n");
  std::fclose(json);

  bench::Emit(table, "bench_bypass");
  std::printf("(json written to BENCH_bypass.json)\n");
  std::printf(
      "Expected shape: digital circuits (inverter chain, clock tree, ring) gain\n"
      "mostly from the bypass replaying quiescent MOSFETs between clock edges;\n"
      "linear circuits (RC mesh/ladder) already reuse exact factors in the\n"
      "baseline (factor cache), so chord's remaining gain there is small.\n");
  return 0;
}

// wavespice: command-line SPICE front end for the WavePipe engine.
//
//   wavespice <deck.sp> [options]
//
//   --engine pipeline|serial|finegrained  engine to run        (default pipeline)
//   --scheme serial|bwp|fwp|combined   pipelining scheme       (default serial)
//   --threads N                        worker threads          (default 3)
//   --out FILE.csv                     write probed waveforms  (default stdout table off)
//   --chart                            ASCII chart of the probes
//   --stats                            print the run's counter registry
//   --stats-json FILE                  write run_stats.json (stable schema)
//   --trace-json FILE                  write Chrome trace_event JSON
//   --compare-serial                   also run serial, report deviation + speedup
//   --bypass                           enable the device latency bypass (off by default)
//   --bypass-vtol X                    latency tolerance scale (default 1.0)
//   --chord                            enable chord-Newton LU factor reuse
//   --partition N                      bordered-block-diagonal solve with N
//                                      pieces (0 = monolithic LU, default)
//   --reduce                           eliminate linear-only subnetworks before
//                                      analysis (exact Schur equivalents; probed
//                                      interior nodes are back-substituted).
//                                      Composes with --partition: reduce first,
//                                      then partition the smaller system.
//                                      Transient only: a usage error with
//                                      --sweep or on a deck without .tran.
//   --spec-policy fixed|adaptive       speculation policy       (default fixed)
//   --spec-depth-min N                 adaptive chain depth lower bound (default 0:
//                                      the controller may throttle speculation off)
//   --spec-depth-max N                 adaptive chain depth upper bound (default 6)
//   --checkpoint FILE                  durable run: periodic checkpoints to FILE.{a,b}
//   --checkpoint-steps N               checkpoint every N accepted steps (default 0: off)
//   --checkpoint-seconds T             checkpoint every T wall seconds (default 15)
//   --resume FILE                      restore a checkpoint and continue the run
//   --max-wall S                       abort (with final checkpoint) after S wall seconds
//   --max-steps N                      abort after N accepted steps this process
//   --max-newton-total N               abort after N Newton iterations this process
//   --watchdog                         stall watchdog over worker heartbeats
//   --no-breakers                      disable the feature circuit-breakers
//   --sweep                            batch mode: expand .param/.step/.mc into a
//                                      variant grid and run every variant across
//                                      --threads workers on shared symbolic
//                                      artifacts; --out becomes the aggregate CSV
//   --mc-seed N                        base seed for .mc device variation (default 1)
//   --sweep-waveforms                  also write per-variant CSVs (<out>.vK.csv)
//   --no-share                         batch mode: rebuild symbolic work per
//                                      variant (cold baseline, for benchmarking)
//
// Decks without .tran dispatch on the next analysis card: .dc (operating-
// point sweep) then .ac (small-signal frequency sweep).
//
// All three engines emit the SAME run_stats.json schema (see
// wavepipe/trace_export.hpp); --stats prints the same registry, so the text
// and JSON views can never drift apart.
//
// Exit codes: 0 ok, 1 usage, 2 parse/elaboration error, 3 analysis failure,
// 4 run incomplete (budget exhausted / watchdog / structured abort — partial
// results and any final checkpoint were still written), 5 checkpoint error
// (corrupt file or resume fingerprint mismatch).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "batch/ac.hpp"
#include "batch/dc_sweep.hpp"
#include "batch/runner.hpp"
#include "engine/resilience.hpp"
#include "netlist/elaborate.hpp"
#include "reduce/reduce.hpp"
#include "util/checkpoint.hpp"
#include "parallel/fine_grained.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/telemetry.hpp"
#include "wavepipe/trace_export.hpp"
#include "wavepipe/virtual_pipeline.hpp"
#include "wavepipe/wavepipe.hpp"

using namespace wavepipe;

namespace {

enum class EngineKind { kPipeline, kSerial, kFineGrained };

struct CliOptions {
  std::string deck_path;
  EngineKind engine = EngineKind::kPipeline;
  pipeline::Scheme scheme = pipeline::Scheme::kSerial;
  int threads = 3;
  std::string csv_out;
  std::string stats_json;
  std::string trace_json;
  bool chart = false;
  bool stats = false;
  bool compare_serial = false;
  // Both accelerations are opt-in, matching the library default: a plain
  // wavespice run stays bit-exact with prior releases (replay wobble lands
  // within LTE tolerance, but "within tolerance" is not "identical").
  bool bypass = false;
  double bypass_vtol = 1.0;
  bool chord = false;
  int partition = 0;
  bool reduce = false;
  // Speculation policy: kFixed keeps the historical scheduler bit for bit.
  pipeline::SpecPolicyOptions spec_policy;
  // Durable-run machinery (engine/resilience.hpp).
  std::string checkpoint_path;
  std::string resume_path;
  std::uint64_t checkpoint_steps = 0;
  double checkpoint_seconds = 15.0;
  double max_wall = 0.0;
  std::uint64_t max_steps = 0;
  std::uint64_t max_newton_total = 0;
  bool watchdog = false;
  bool breakers = true;
  // Batch mode (src/batch).
  bool sweep = false;
  std::uint64_t mc_seed = 1;
  bool sweep_waveforms = false;
  bool share_artifacts = true;
};

int Usage() {
  std::fprintf(stderr,
               "usage: wavespice <deck.sp> [--engine pipeline|serial|finegrained] "
               "[--scheme serial|bwp|fwp|combined] "
               "[--threads N] [--out file.csv] [--chart] [--stats] "
               "[--stats-json file.json] [--trace-json file.json] "
               "[--compare-serial] [--bypass] [--bypass-vtol X] [--chord] "
               "[--partition N] [--reduce] "
               "[--spec-policy fixed|adaptive] [--spec-depth-min N] "
               "[--spec-depth-max N] "
               "[--checkpoint file.ckpt] [--checkpoint-steps N] "
               "[--checkpoint-seconds T] [--resume file.ckpt] "
               "[--max-wall S] [--max-steps N] [--max-newton-total N] "
               "[--watchdog] [--no-breakers] "
               "[--sweep] [--mc-seed N] [--sweep-waveforms] [--no-share]\n"
               "--reduce applies to .tran analyses only: it is a usage error "
               "with --sweep or on a .dc/.ac-only deck\n"
               "exit codes: 0 ok, 1 usage, 2 parse/elaboration error, "
               "3 analysis failure,\n"
               "            4 run incomplete (budget/watchdog/structured abort), "
               "5 checkpoint error\n");
  return 1;
}

bool ParseArgs(int argc, char** argv, CliOptions* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--engine") {
      const char* v = next();
      if (!v) return false;
      if (!std::strcmp(v, "pipeline")) out->engine = EngineKind::kPipeline;
      else if (!std::strcmp(v, "serial")) out->engine = EngineKind::kSerial;
      else if (!std::strcmp(v, "finegrained")) out->engine = EngineKind::kFineGrained;
      else return false;
    } else if (arg == "--scheme") {
      const char* v = next();
      if (!v) return false;
      if (!std::strcmp(v, "serial")) out->scheme = pipeline::Scheme::kSerial;
      else if (!std::strcmp(v, "bwp")) out->scheme = pipeline::Scheme::kBackward;
      else if (!std::strcmp(v, "fwp")) out->scheme = pipeline::Scheme::kForward;
      else if (!std::strcmp(v, "combined")) out->scheme = pipeline::Scheme::kCombined;
      else return false;
    } else if (arg == "--threads") {
      const char* v = next();
      if (!v) return false;
      out->threads = std::atoi(v);
      if (out->threads < 1) return false;
    } else if (arg == "--out") {
      const char* v = next();
      if (!v) return false;
      out->csv_out = v;
    } else if (arg == "--stats-json") {
      const char* v = next();
      if (!v) return false;
      out->stats_json = v;
    } else if (arg == "--trace-json") {
      const char* v = next();
      if (!v) return false;
      out->trace_json = v;
    } else if (arg == "--chart") {
      out->chart = true;
    } else if (arg == "--stats") {
      out->stats = true;
    } else if (arg == "--compare-serial") {
      out->compare_serial = true;
    } else if (arg == "--bypass") {
      out->bypass = true;
    } else if (arg == "--no-bypass") {  // kept for symmetry; off is the default
      out->bypass = false;
    } else if (arg == "--bypass-vtol") {
      const char* v = next();
      if (!v) return false;
      out->bypass_vtol = std::atof(v);
      if (!(out->bypass_vtol > 0.0)) return false;
    } else if (arg == "--chord") {
      out->chord = true;
    } else if (arg == "--partition") {
      const char* v = next();
      if (!v) return false;
      out->partition = std::atoi(v);
      if (out->partition < 0) return false;
    } else if (arg == "--reduce") {
      out->reduce = true;
    } else if (arg == "--spec-policy") {
      const char* v = next();
      if (!v) return false;
      if (!std::strcmp(v, "fixed")) {
        out->spec_policy.mode = pipeline::SpecPolicyMode::kFixed;
      } else if (!std::strcmp(v, "adaptive")) {
        out->spec_policy.mode = pipeline::SpecPolicyMode::kAdaptive;
      } else {
        return false;
      }
    } else if (arg == "--spec-depth-min") {
      const char* v = next();
      if (!v) return false;
      out->spec_policy.min_depth = std::atoi(v);
      if (out->spec_policy.min_depth < 0) return false;
    } else if (arg == "--spec-depth-max") {
      const char* v = next();
      if (!v) return false;
      out->spec_policy.max_depth = std::atoi(v);
      if (out->spec_policy.max_depth < 1) return false;
    } else if (arg == "--checkpoint") {
      const char* v = next();
      if (!v) return false;
      out->checkpoint_path = v;
    } else if (arg == "--checkpoint-steps") {
      const char* v = next();
      if (!v) return false;
      const long long n = std::atoll(v);
      if (n < 0) return false;
      out->checkpoint_steps = static_cast<std::uint64_t>(n);
    } else if (arg == "--checkpoint-seconds") {
      const char* v = next();
      if (!v) return false;
      out->checkpoint_seconds = std::atof(v);
      if (!(out->checkpoint_seconds >= 0.0)) return false;
    } else if (arg == "--resume") {
      const char* v = next();
      if (!v) return false;
      out->resume_path = v;
    } else if (arg == "--max-wall") {
      const char* v = next();
      if (!v) return false;
      out->max_wall = std::atof(v);
      if (!(out->max_wall >= 0.0)) return false;
    } else if (arg == "--max-steps") {
      const char* v = next();
      if (!v) return false;
      const long long n = std::atoll(v);
      if (n < 0) return false;
      out->max_steps = static_cast<std::uint64_t>(n);
    } else if (arg == "--max-newton-total") {
      const char* v = next();
      if (!v) return false;
      const long long n = std::atoll(v);
      if (n < 0) return false;
      out->max_newton_total = static_cast<std::uint64_t>(n);
    } else if (arg == "--watchdog") {
      out->watchdog = true;
    } else if (arg == "--no-breakers") {
      out->breakers = false;
    } else if (arg == "--sweep") {
      out->sweep = true;
    } else if (arg == "--mc-seed") {
      const char* v = next();
      if (!v) return false;
      const long long n = std::atoll(v);
      if (n < 0) return false;
      out->mc_seed = static_cast<std::uint64_t>(n);
    } else if (arg == "--sweep-waveforms") {
      out->sweep_waveforms = true;
    } else if (arg == "--no-share") {
      out->share_artifacts = false;
    } else if (!arg.empty() && arg[0] == '-') {
      return false;
    } else if (out->deck_path.empty()) {
      out->deck_path = arg;
    } else {
      return false;
    }
  }
  return !out->deck_path.empty();
}

/// `axis` names the first column; `wrap_v` wraps probe names as "v(name)"
/// (transient convention — dc/ac traces carry self-describing names).
void WriteTraceCsv(const engine::Trace& trace, const std::string& path,
                   const std::string& axis, bool wrap_v) {
  util::Table table([&] {
    std::vector<std::string> header{axis};
    for (const auto& name : trace.probes().names) {
      header.push_back(wrap_v ? "v(" + name + ")" : name);
    }
    return header;
  }());
  for (std::size_t i = 0; i < trace.num_samples(); ++i) {
    std::vector<std::string> row{util::FormatDouble(trace.time(i), 9)};
    for (std::size_t p = 0; p < trace.probes().size(); ++p) {
      row.push_back(util::FormatDouble(trace.value(i, p), 9));
    }
    table.AddRow(std::move(row));
  }
  table.WriteCsv(path);
  std::printf("wrote %zu samples x %zu probes to %s\n", trace.num_samples(),
              trace.probes().size(), path.c_str());
}

void WriteCsv(const engine::Trace& trace, const std::string& path) {
  WriteTraceCsv(trace, path, "time", /*wrap_v=*/true);
}

/// Prints the registry — the SAME one run_stats.json serializes, so the text
/// and JSON stats views share one source and cannot drift.
void PrintCounters(const util::telemetry::CounterRegistry& registry) {
  for (const auto& counter : registry.counters()) {
    if (counter.integral) {
      std::printf("  %-42s %lld\n", counter.name.c_str(),
                  static_cast<long long>(counter.value));
    } else {
      std::printf("  %-42s %.6g\n", counter.name.c_str(), counter.value);
    }
  }
}

/// Hex form of a waveform hash — the aggregate CSV's bit-identity column.
std::string HashHex(std::uint64_t hash) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

/// Batch mode (--sweep): expand the deck's grid, run every variant on the
/// pool with shared symbolic artifacts, and write the aggregate CSV whose
/// bytes are the determinism contract CI diffs across pool sizes.
int RunBatchMode(const CliOptions& cli) {
  netlist::ParsedNetlist parsed;
  batch::BatchOptions options;
  options.threads = cli.threads;
  options.mc_seed = cli.mc_seed;
  options.share_artifacts = cli.share_artifacts;
  try {
    parsed = netlist::ParseNetlistFile(cli.deck_path);
    // The prototype's .options seed the per-variant SimOptions; CLI
    // acceleration flags overlay them, exactly like the single-run path.
    options.sim = netlist::Elaborate(batch::ApplyParamDefaults(parsed)).sim_options;
  } catch (const Error& e) {
    std::fprintf(stderr, "wavespice: %s\n", e.what());
    return 2;
  }
  options.sim.device_bypass = cli.bypass;
  options.sim.bypass_vtol = cli.bypass_vtol;
  options.sim.chord_newton = cli.chord;
  options.sim.partition_pieces = cli.partition;

  try {
    const batch::BatchResult result = batch::RunBatch(parsed, options);
    const batch::BatchStats& stats = result.stats;
    std::printf("batch: %llu variants (%llu step axes x %llu mc samples), "
                "%llu ok, %llu failed, %d threads, wall %.3f s\n",
                static_cast<unsigned long long>(stats.variants_total),
                static_cast<unsigned long long>(stats.step_axes),
                static_cast<unsigned long long>(
                    stats.mc_samples > 0 ? stats.mc_samples : 1),
                static_cast<unsigned long long>(stats.variants_ok),
                static_cast<unsigned long long>(stats.variants_failed),
                cli.threads, stats.wall_seconds);
    if (result.artifacts.built) {
      std::printf("shared artifacts: dim %d, ordering %llu hits / %llu misses, "
                  "build %.3f s\n",
                  result.artifacts.dimension,
                  static_cast<unsigned long long>(stats.ordering_hits),
                  static_cast<unsigned long long>(stats.ordering_misses),
                  stats.artifacts_build_seconds);
    }
    for (const auto& v : result.variants) {
      if (!v.ok) {
        std::fprintf(stderr, "wavespice: variant %d failed: %s\n", v.index,
                     v.error.c_str());
      }
    }

    if (!cli.csv_out.empty()) {
      util::Table table([&] {
        std::vector<std::string> header{"variant"};
        for (const auto& axis : result.plan.axis_names) header.push_back(axis);
        header.insert(header.end(), {"mc", "seed", "status", "analysis", "steps",
                                     "newton", "points", "waveform_hash",
                                     "error"});
        return header;
      }());
      for (const auto& v : result.variants) {
        std::vector<std::string> row{std::to_string(v.index)};
        for (const auto& [name, value] : v.spec.step_values) {
          (void)name;
          row.push_back(util::FormatDouble(value, 9));
        }
        row.push_back(std::to_string(v.spec.mc_index));
        row.push_back(std::to_string(v.spec.seed));
        row.push_back(v.ok ? "ok" : "failed");
        row.push_back(v.analysis.empty() ? "-" : v.analysis);
        row.push_back(std::to_string(v.steps_accepted));
        row.push_back(std::to_string(v.newton_iterations));
        row.push_back(std::to_string(v.points));
        row.push_back(v.ok ? HashHex(v.waveform_hash) : "-");
        row.push_back(v.error);
        table.AddRow(std::move(row));
      }
      table.WriteCsv(cli.csv_out);
      std::printf("wrote %zu variant rows to %s\n", result.variants.size(),
                  cli.csv_out.c_str());
      if (cli.sweep_waveforms) {
        std::string stem = cli.csv_out;
        if (stem.size() > 4 && stem.substr(stem.size() - 4) == ".csv") {
          stem.resize(stem.size() - 4);
        }
        for (const auto& v : result.variants) {
          if (!v.ok) continue;
          const std::string axis = v.analysis == "tran"  ? "time"
                                   : v.analysis == "dc"  ? "sweep"
                                                         : "freq";
          WriteTraceCsv(v.trace, stem + ".v" + std::to_string(v.index) + ".csv",
                        axis, v.analysis == "tran");
        }
      }
    }

    pipeline::RunCounterInputs inputs;
    inputs.batch = stats;
    const util::telemetry::CounterRegistry registry =
        pipeline::BuildRunCounters(inputs);
    if (cli.stats) PrintCounters(registry);
    if (!cli.stats_json.empty()) {
      pipeline::RunInfo info;
      info.engine = "batch";
      info.deck = cli.deck_path;
      info.threads = cli.threads;
      info.dcop_strategy = "-";
      info.completed = stats.variants_failed == 0;
      if (!info.completed) info.abort_reason = "variant failures";
      pipeline::WriteTextFile(cli.stats_json, pipeline::RunStatsJson(info, registry));
      std::printf("wrote run stats (%zu counters) to %s\n", registry.size(),
                  cli.stats_json.c_str());
    }
    if (stats.variants_failed > 0) return 4;
  } catch (const Error& e) {
    std::fprintf(stderr, "wavespice: analysis failed: %s\n", e.what());
    return 3;
  }
  return 0;
}

/// Single-run path for .dc / .ac decks (no .tran, no --sweep).
int RunSingleSweepAnalysis(const CliOptions& cli,
                           netlist::ElaboratedCircuit& elaborated) {
  try {
    const engine::MnaStructure mna(*elaborated.circuit);
    engine::SimOptions sim = elaborated.sim_options;
    sim.device_bypass = cli.bypass;
    sim.bypass_vtol = cli.bypass_vtol;
    sim.chord_newton = cli.chord;
    sim.partition_pieces = cli.partition;

    engine::Trace trace;
    std::string engine_name, axis;
    if (elaborated.dc.present) {
      const auto result = batch::RunDcSweep(*elaborated.circuit, mna, elaborated.dc,
                                            elaborated.probes, sim);
      std::printf("dc sweep of %s: %llu points, %llu Newton iterations\n",
                  elaborated.dc.source.c_str(),
                  static_cast<unsigned long long>(result.points),
                  static_cast<unsigned long long>(result.newton_iterations));
      trace = result.trace;
      engine_name = "dc-sweep";
      axis = "sweep";
    } else {
      const auto result = batch::RunAcAnalysis(*elaborated.circuit, mna, elaborated.ac,
                                               elaborated.probes, sim);
      std::printf("ac: %llu frequencies, dcop %llu Newton iterations%s\n",
                  static_cast<unsigned long long>(result.points),
                  static_cast<unsigned long long>(result.dcop_iterations),
                  result.ordering_injected ? ", 2n ordering inherited" : "");
      trace = result.trace;
      engine_name = "ac";
      axis = "freq";
    }

    pipeline::RunCounterInputs inputs;
    const util::telemetry::CounterRegistry registry =
        pipeline::BuildRunCounters(inputs);
    if (cli.stats) PrintCounters(registry);
    if (!cli.stats_json.empty()) {
      pipeline::RunInfo info;
      info.engine = engine_name;
      info.deck = elaborated.title.empty() ? cli.deck_path : elaborated.title;
      info.threads = 1;
      info.dcop_strategy = "-";
      pipeline::WriteTextFile(cli.stats_json, pipeline::RunStatsJson(info, registry));
      std::printf("wrote run stats (%zu counters) to %s\n", registry.size(),
                  cli.stats_json.c_str());
    }
    if (cli.chart && trace.probes().size() > 0) {
      util::AsciiChart chart(72, 14);
      for (std::size_t p = 0; p < trace.probes().size() && p < 4; ++p) {
        chart.AddSeries(trace.probes().names[p], trace.Series(p));
      }
      std::printf("%s", chart.ToString().c_str());
    }
    if (!cli.csv_out.empty()) WriteTraceCsv(trace, cli.csv_out, axis, false);
  } catch (const Error& e) {
    std::fprintf(stderr, "wavespice: analysis failed: %s\n", e.what());
    return 3;
  }
  return 0;
}

/// What every engine variant hands back to the shared output stages.
struct RunProducts {
  engine::Trace trace;
  pipeline::RunInfo info;
  pipeline::RunCounterInputs counters;
  // Pipeline only; empty/zero for the other engines (schema unaffected:
  // BuildRunCounters exports the groups with defaults).
  pipeline::Ledger ledger;
  bool has_ledger = false;
};

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) return Usage();

  // --reduce rewrites the circuit only on the transient path below; the
  // batch and .dc/.ac paths would silently run unreduced.
  if (cli.sweep) {
    if (cli.reduce) {
      std::fprintf(stderr, "wavespice: --reduce cannot be combined with --sweep\n");
      return 1;
    }
    return RunBatchMode(cli);
  }

  netlist::ElaboratedCircuit elaborated;
  try {
    elaborated = netlist::LoadDeckFile(cli.deck_path);
  } catch (const Error& e) {
    std::fprintf(stderr, "wavespice: %s\n", e.what());
    return 2;
  }
  if (!elaborated.has_tran) {
    if (elaborated.dc.present || elaborated.ac.present) {
      if (cli.reduce) {
        std::fprintf(stderr,
                     "wavespice: --reduce needs a .tran analysis; this deck has "
                     "only .dc/.ac\n");
        return 1;
      }
      return RunSingleSweepAnalysis(cli, elaborated);
    }
    std::fprintf(stderr, "wavespice: deck has no analysis card (.tran/.dc/.ac)\n");
    return 2;
  }
  std::printf("%s: %d unknowns, %zu devices, tran %g..%g s\n",
              elaborated.title.c_str(), elaborated.circuit->num_unknowns(),
              elaborated.circuit->num_devices(), elaborated.spec.tstart,
              elaborated.spec.tstop);

  // The resume checkpoint outlives the run (SimOptions holds a pointer).
  engine::TransientCheckpoint resume_ck;

  // Reduction stats survive past the pass so every engine branch exports the
  // same reduce.* counter group (zeros when --reduce is off).
  reduce::ReductionStats reduction_stats;

  try {
    if (cli.reduce) {
      // Nodes whose values are imposed by unknown index (.ic) must survive
      // elimination; probed nodes need not — RemapSpec reroutes them to the
      // subnets' back-substituted state slots.
      std::vector<int> keep;
      for (const auto& ic : elaborated.spec.initial_conditions) keep.push_back(ic.first);
      for (const auto& ic : elaborated.initial_conditions) keep.push_back(ic.first);
      reduce::ReductionResult reduction = reduce::Reduce(std::move(elaborated.circuit), keep);
      reduction.stats.interior_expansions +=
          reduce::RemapSpec(reduction, elaborated.spec);
      for (auto& ic : elaborated.initial_conditions) {
        if (ic.first >= 0) ic.first = reduction.unknown_map[static_cast<std::size_t>(ic.first)];
      }
      elaborated.circuit = std::move(reduction.circuit);
      reduction_stats = reduction.stats;
      if (reduction.reduced) {
        std::printf("reduce: %llu subnets, %llu nodes eliminated, %llu devices "
                    "absorbed, %d unknowns remain\n",
                    static_cast<unsigned long long>(reduction_stats.subnets),
                    static_cast<unsigned long long>(reduction_stats.nodes_eliminated),
                    static_cast<unsigned long long>(reduction_stats.devices_absorbed),
                    elaborated.circuit->num_unknowns());
      }
    }

    engine::MnaStructure mna(*elaborated.circuit);
    engine::SimOptions sim = elaborated.sim_options;
    sim.device_bypass = cli.bypass;
    sim.bypass_vtol = cli.bypass_vtol;
    sim.chord_newton = cli.chord;
    sim.partition_pieces = cli.partition;
    sim.resilience.checkpoint_path = cli.checkpoint_path;
    sim.resilience.checkpoint_every_steps = cli.checkpoint_steps;
    sim.resilience.checkpoint_every_seconds = cli.checkpoint_seconds;
    sim.resilience.max_wall_seconds = cli.max_wall;
    sim.resilience.max_steps = cli.max_steps;
    sim.resilience.max_newton_total = cli.max_newton_total;
    sim.resilience.watchdog = cli.watchdog;
    sim.resilience.breakers = cli.breakers;
    if (!cli.resume_path.empty()) {
      resume_ck = engine::LoadCheckpoint(cli.resume_path);
      sim.resilience.resume = &resume_ck;
      std::printf("resuming from %s (engine %s, %zu accepted steps, t = %g s)\n",
                  cli.resume_path.c_str(), resume_ck.engine.c_str(),
                  resume_ck.stats.steps_accepted,
                  resume_ck.trace_times.empty() ? 0.0 : resume_ck.trace_times.back());
    }

    const bool want_trace = !cli.trace_json.empty();
    if (want_trace) util::telemetry::StartCapture();

    RunProducts run;
    run.info.deck = elaborated.title.empty() ? cli.deck_path : elaborated.title;
    run.info.threads = cli.threads;

    if (cli.engine != EngineKind::kPipeline) {
      // One transient loop serves both: fine-grained is the serial loop with
      // an intra-solve pool attached (parallel/fine_grained.hpp).
      const bool fine = cli.engine == EngineKind::kFineGrained;
      parallel::FineGrainedOptions fine_options;
      fine_options.threads = cli.threads;
      fine_options.sim = sim;
      const engine::TransientResult result =
          fine ? parallel::RunTransientFineGrained(*elaborated.circuit, mna, elaborated.spec,
                                                   fine_options)
               : engine::RunTransientSerial(*elaborated.circuit, mna, elaborated.spec, sim);
      if (fine) {
        std::printf("engine finegrained (%d threads, %s assembly): ", cli.threads,
                    result.assembly.strategy);
      } else {
        std::printf("engine serial: ");
      }
      std::printf("%zu steps, %llu Newton iterations, dcop via %s, wall %.3f s\n",
                  result.stats.steps_accepted,
                  static_cast<unsigned long long>(result.stats.newton_iterations),
                  result.stats.dcop_strategy.c_str(), result.stats.wall_seconds);
      run.trace = result.trace;
      run.info.engine = fine ? "fine-grained" : "serial";
      run.info.threads = fine ? cli.threads : 1;
      run.info.dcop_strategy = result.stats.dcop_strategy;
      run.info.assembly_strategy = result.assembly.strategy;
      run.info.completed = result.completed;
      run.info.abort_reason = result.abort_reason;
      run.info.last_good_time = result.last_good_time;
      run.counters.stats = result.stats;
      run.counters.assembly = result.assembly;
      run.counters.phases = result.phases;
      run.counters.resilience = result.resilience;
    } else {
      pipeline::WavePipeOptions options;
      options.scheme = cli.scheme;
      options.threads = cli.threads;
      options.spec_policy = cli.spec_policy;
      options.sim = sim;
      const auto result =
          pipeline::RunWavePipe(*elaborated.circuit, mna, elaborated.spec, options);

      std::printf("scheme %s: %zu steps, %zu rounds, %llu Newton iterations, "
                  "dcop via %s, wall %.3f s\n",
                  pipeline::SchemeName(cli.scheme), result.stats.steps_accepted,
                  result.sched.rounds,
                  static_cast<unsigned long long>(result.stats.newton_iterations),
                  result.stats.dcop_strategy.c_str(), result.stats.wall_seconds);

      run.trace = result.trace;
      run.info.engine = "wavepipe";
      run.info.scheme = pipeline::SchemeName(cli.scheme);
      run.info.dcop_strategy = result.stats.dcop_strategy;
      run.info.assembly_strategy = result.assembly.strategy;
      run.info.completed = result.completed;
      run.info.abort_reason = result.abort_reason;
      run.info.last_good_time = result.last_good_time;
      run.counters.stats = result.stats;
      run.counters.assembly = result.assembly;
      run.counters.sched = result.sched;
      run.counters.spec = result.spec;
      run.counters.resilience = result.resilience;
      run.ledger = result.ledger;
      run.has_ledger = true;

      if (cli.compare_serial && cli.scheme != pipeline::Scheme::kSerial) {
        pipeline::WavePipeOptions serial_options = options;
        serial_options.scheme = pipeline::Scheme::kSerial;
        const auto serial = pipeline::RunWavePipe(*elaborated.circuit, mna,
                                                  elaborated.spec, serial_options);
        const double deviation =
            engine::Trace::MaxDeviationAll(serial.trace, result.trace);
        const double serial_makespan =
            pipeline::ReplayOnWorkers(serial.ledger, 1).makespan_seconds;
        const double scheme_makespan =
            pipeline::ReplayOnWorkers(result.ledger, cli.threads).makespan_seconds;
        std::printf("vs serial: max deviation %.3g V, modeled x%d speedup %.2f\n",
                    deviation, cli.threads, serial_makespan / scheme_makespan);
      }
    }

    const int replay_workers =
        (cli.engine == EngineKind::kPipeline && cli.scheme != pipeline::Scheme::kSerial)
            ? cli.threads
            : 1;
    if (run.has_ledger) {
      run.counters.ledger = &run.ledger;
      run.counters.replay = pipeline::ReplayOnWorkers(run.ledger, replay_workers);
    }
    run.counters.reduction = reduction_stats;
    const util::telemetry::CounterRegistry registry =
        pipeline::BuildRunCounters(run.counters);

    if (cli.stats) PrintCounters(registry);

    if (!cli.stats_json.empty()) {
      pipeline::WriteTextFile(cli.stats_json, pipeline::RunStatsJson(run.info, registry));
      std::printf("wrote run stats (%zu counters) to %s\n", registry.size(),
                  cli.stats_json.c_str());
    }

    if (want_trace) {
      pipeline::ChromeTraceInputs trace_in;
      trace_in.capture = util::telemetry::StopCapture();
      trace_in.ledger = run.has_ledger ? &run.ledger : nullptr;
      trace_in.replay_workers = run.has_ledger ? replay_workers : 0;
      pipeline::WriteTextFile(cli.trace_json, pipeline::ChromeTraceJson(trace_in));
      std::printf("wrote %zu trace events to %s (open in chrome://tracing or "
                  "https://ui.perfetto.dev)\n",
                  trace_in.capture.events.size() +
                      (run.has_ledger ? run.ledger.size() : 0),
                  cli.trace_json.c_str());
    }

    if (cli.chart && run.trace.probes().size() > 0) {
      util::AsciiChart chart(72, 14);
      for (std::size_t p = 0; p < run.trace.probes().size() && p < 4; ++p) {
        chart.AddSeries("v(" + run.trace.probes().names[p] + ")", run.trace.Series(p));
      }
      std::printf("%s", chart.ToString().c_str());
    }

    if (!cli.csv_out.empty()) WriteCsv(run.trace, cli.csv_out);

    if (!run.info.completed) {
      std::fprintf(stderr, "wavespice: run incomplete at t = %g s: %s\n",
                   run.info.last_good_time, run.info.abort_reason.c_str());
      return 4;
    }
  } catch (const util::CheckpointError& e) {
    std::fprintf(stderr, "wavespice: checkpoint error: %s\n", e.what());
    return 5;
  } catch (const Error& e) {
    std::fprintf(stderr, "wavespice: analysis failed: %s\n", e.what());
    return 3;
  }
  return 0;
}

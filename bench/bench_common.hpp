// Shared harness for the paper-reproduction benches: runs a circuit under a
// scheme, extracts the metrics every table reports, and prints both the
// ASCII table and a CSV copy (written next to the binary as <name>.csv).
#pragma once

#include <cstdio>
#include <iostream>
#include <string>

#include "circuits/generators.hpp"
#include "engine/transient.hpp"
#include "util/table.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"
#include "wavepipe/virtual_pipeline.hpp"
#include "wavepipe/wavepipe.hpp"

namespace wavepipe::bench {

/// Writes a counter registry as a JSON object into an open bench JSON file,
/// `indent` spaces deep (no trailing newline).  The names come from the same
/// ExportCounters methods run_stats.json uses — bench artifacts and CLI
/// stats share one counter vocabulary (see wavepipe/trace_export.hpp).
inline void WriteCountersJson(std::FILE* f, const util::telemetry::CounterRegistry& reg,
                              int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::fprintf(f, "{");
  bool first = true;
  for (const auto& c : reg.counters()) {
    std::fprintf(f, "%s\n%s  \"%s\": ", first ? "" : ",", pad.c_str(), c.name.c_str());
    if (c.integral) {
      std::fprintf(f, "%lld", static_cast<long long>(c.value));
    } else {
      std::fprintf(f, "%.9g", c.value);
    }
    first = false;
  }
  std::fprintf(f, "\n%s}", pad.c_str());
}

/// Everything a table row needs about one (circuit, scheme, threads) run.
struct SchemeMetrics {
  pipeline::Scheme scheme = pipeline::Scheme::kSerial;
  int threads = 1;
  std::size_t rounds = 0;           ///< sequential macro-iterations
  std::size_t steps = 0;            ///< accepted leading steps
  std::uint64_t newton_iterations = 0;
  double wall_seconds = 0.0;        ///< measured wall clock of the run
  double makespan_seconds = 0.0;    ///< virtual replay on `threads` workers
  double busy_seconds = 0.0;        ///< total solver CPU across workers
  pipeline::PipelineSchedStats sched;
  pipeline::SpecPolicyStats spec;
  engine::TransientStats stats;
  engine::Trace trace;
};

inline SchemeMetrics RunScheme(const circuits::GeneratedCircuit& gen,
                               const engine::MnaStructure& mna, pipeline::Scheme scheme,
                               int threads, engine::SimOptions sim = {},
                               pipeline::WavePipeOptions* custom = nullptr) {
  pipeline::WavePipeOptions options;
  if (custom) options = *custom;
  options.scheme = scheme;
  options.threads = threads;
  options.sim = sim;

  util::WallTimer timer;
  auto result = pipeline::RunWavePipe(*gen.circuit, mna, gen.spec, options);
  const int workers = scheme == pipeline::Scheme::kSerial ? 1 : threads;
  // Iteration-count cost basis: deterministic across runs (individual solves
  // are microseconds here, so measured-seconds replay carries timing noise).
  const auto replay = pipeline::ReplayOnWorkers(result.ledger, workers,
                                                pipeline::ReplayCost::kNewtonIterations);

  SchemeMetrics m;
  m.scheme = scheme;
  m.threads = workers;
  m.rounds = result.sched.rounds;
  m.steps = result.stats.steps_accepted;
  m.newton_iterations = result.stats.newton_iterations;
  m.wall_seconds = timer.Seconds();
  m.makespan_seconds = replay.makespan_seconds;
  m.busy_seconds = replay.busy_seconds;
  m.sched = result.sched;
  m.spec = result.spec;
  m.stats = result.stats;
  m.trace = std::move(result.trace);
  return m;
}

/// Prints the table and writes `<csv_name>.csv` beside the binary.
inline void Emit(const util::Table& table, const std::string& csv_name) {
  table.Print(std::cout);
  const std::string path = csv_name + ".csv";
  table.WriteCsv(path);
  std::printf("(csv written to %s)\n\n", path.c_str());
}

inline std::string Speedup(double serial_makespan, double scheme_makespan) {
  return util::Table::Cell(serial_makespan / scheme_makespan, 3);
}

}  // namespace wavepipe::bench

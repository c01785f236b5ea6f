// Observability exporters: the two machine-readable views of a run.
//
//  * run_stats.json — a stable, schema-versioned counter dump.  One
//    BuildRunCounters() builds the registry for EVERY engine (serial,
//    fine-grained, WavePipe); groups an engine lacks are exported with
//    default values rather than omitted, so the key set is structurally
//    identical across engines and a CI diff of two runs is always
//    key-aligned.  tools/check_bench.py and the bench JSON artifacts consume
//    this schema.
//
//  * Chrome trace_event JSON — a timeline for chrome://tracing / Perfetto
//    with two process groups: pid 1 carries the LIVE telemetry spans
//    captured during the run (one thread track per telemetry lane: driver
//    loop, pipeline slots), pid 2 carries the VIRTUAL replay of the work
//    ledger on k modeled workers (one track per worker; speculative solves
//    that never reached the waveform are color-flagged as wasted).  The
//    replay half is the paper's multi-core claim made visible: the same
//    list-scheduled placement ReplayOnWorkers() reports as a makespan,
//    rendered task by task.
#pragma once

#include <string>
#include <vector>

#include "engine/newton.hpp"
#include "engine/transient.hpp"
#include "batch/stats.hpp"
#include "reduce/reduce.hpp"
#include "util/telemetry.hpp"
#include "wavepipe/ledger.hpp"
#include "wavepipe/virtual_pipeline.hpp"
#include "wavepipe/wavepipe.hpp"

namespace wavepipe::pipeline {

/// run_stats.json schema tag.  Bump ONLY with a matching update to
/// tools/check_bench.py and the schema-parity tests.
///
/// The schema grows ADDITIVELY.  The original v1 key set is byte-stable; the
/// per-scheme `sched.{bwp,fwp,combined}.*` sub-keys and the
/// speculation-policy `spec.*` group were appended under the v1 tag
/// (consumers iterate their own baseline keys, so additions never break
/// them — see tools/check_bench.py).
///
/// v1.1 appends the domain-decomposition group `partition.*` (pieces,
/// interface_size, piece_imbalance, full_factors, refactors, solves,
/// schur_factors, schur_nnz, schur_seconds) after the `lu.*` block.  Every
/// pre-existing key keeps its name, type and position; v1 consumers reading
/// their own baseline keys parse v1.1 documents unchanged.
///
/// v1.2 appends the durable-run groups `ckpt.*`, `watchdog.*` and
/// `resilience.*` (engine/resilience_stats.hpp: checkpoint writes/failures/
/// bytes/generation/resumed, watchdog stalls/escalations, breaker trips/
/// retrips/reprobes, per-feature trip counts, budget_exhausted) after the
/// `ledger.*` block.  Additive-only again: v1.1 consumers parse v1.2
/// documents unchanged.
///
/// v1.3 appends the linear-subnetwork-reduction group `reduce.*`
/// (reduce/reduce.hpp: subnets, nodes_eliminated, devices_absorbed,
/// static_subnets, max_interior, max_ports, interior_expansions) after the
/// resilience block.  All zeros when --reduce is off or nothing was
/// reducible; additive-only, so v1.2 consumers parse v1.3 unchanged.
///
/// v1.4 appends the batch-analysis group `batch.*` (batch/stats.hpp:
/// variants_total/ok/failed, step_axes, mc_samples, ordering_hits/misses,
/// artifacts_shared, artifacts_build_seconds, steps_accepted,
/// newton_iterations, dc_points, ac_points, wall_seconds) after the
/// `reduce.*` block.  All zeros outside --sweep runs; additive-only, so
/// v1.3 consumers parse v1.4 unchanged.
inline constexpr const char* kRunStatsSchema = "wavepipe.run_stats.v1.4";

/// Identity of one run for the run_stats.json header.  Strings live here;
/// the counter registry is numeric-only by design.
struct RunInfo {
  std::string engine;        ///< "serial" | "fine-grained" | "wavepipe"
  std::string scheme = "-";  ///< pipeline scheme name, "-" off-pipeline
  std::string deck;          ///< deck title (or path when untitled)
  int threads = 1;
  std::string dcop_strategy;
  std::string assembly_strategy = "serial";
  bool completed = true;
  std::string abort_reason;
  double last_good_time = 0.0;
};

/// Everything BuildRunCounters() folds into the registry.  Every member has
/// a default: an engine without a scheduler (serial), phase breakdown
/// (WavePipe) or ledger (fine-grained) exports the group's defaults, which
/// is what keeps the schema identical across engines.
struct RunCounterInputs {
  engine::TransientStats stats;
  engine::AssemblyStats assembly;
  PipelineSchedStats sched;
  SpecPolicyStats spec;
  engine::PhaseBreakdown phases;
  ReplayResult replay;
  const Ledger* ledger = nullptr;
  /// Durable-run counters (v1.2): ckpt.*, watchdog.*, resilience.*.
  engine::ResilienceStats resilience;
  /// Linear-subnetwork reduction counters (v1.3): reduce.*.
  reduce::ReductionStats reduction;
  /// Batch-analysis counters (v1.4): batch.*.
  batch::BatchStats batch;
};

/// Builds the full run_stats counter registry: transient.* + lu.* (engine
/// core), assembly.*, sched.*, spec.*, phases.*, replay.*, ledger.*.  Group
/// order and names are the schema; the parity test pins them.
util::telemetry::CounterRegistry BuildRunCounters(const RunCounterInputs& inputs);

/// Serializes header + counters to the run_stats.json document (integral
/// counters as JSON integers, values as doubles, insertion order preserved).
std::string RunStatsJson(const RunInfo& info,
                         const util::telemetry::CounterRegistry& registry);

/// Inputs for the Chrome trace exporter.  Both halves are optional: an empty
/// capture emits no live spans, a null ledger no replay lanes.
struct ChromeTraceInputs {
  util::telemetry::Capture capture;
  const Ledger* ledger = nullptr;
  /// Virtual workers for the replay half (>= 1 to emit it).
  int replay_workers = 0;
  /// Replay cost basis.  kMeasuredSeconds renders in real microseconds;
  /// kNewtonIterations renders one iteration as one microsecond (the unit is
  /// virtual anyway — Perfetto only needs monotone numbers).
  ReplayCost replay_cost = ReplayCost::kMeasuredSeconds;
};

/// Serializes a `{"traceEvents": [...]}` document chrome://tracing and
/// Perfetto load directly.
std::string ChromeTraceJson(const ChromeTraceInputs& inputs);

/// Convenience: writes `contents` to `path`, throwing util::Error on I/O
/// failure (the CLI's --trace-json/--stats-json both route through this).
void WriteTextFile(const std::string& path, const std::string& contents);

}  // namespace wavepipe::pipeline

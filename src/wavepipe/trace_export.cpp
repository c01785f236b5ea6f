#include "wavepipe/trace_export.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>

#include "util/error.hpp"

namespace wavepipe::pipeline {

void PipelineSchedStats::ExportCounters(util::telemetry::CounterRegistry& registry) const {
  registry.Count("sched.rounds", rounds);
  registry.Count("sched.backward_solves", backward_solves);
  registry.Count("sched.speculative_solves", speculative_solves);
  registry.Count("sched.speculative_accepted", speculative_accepted);
  registry.Count("sched.speculative_direct", speculative_direct);
  registry.Count("sched.speculative_discarded", speculative_discarded);
  registry.Count("sched.repair_solves", repair_solves);
  registry.Count("sched.repair_newton_iterations", repair_newton_iterations);
  registry.Count("sched.quarantine_activations", quarantine_activations);
  registry.Count("sched.quarantined_rounds", quarantined_rounds);
  registry.Count("sched.drained_task_errors", drained_task_errors);
  registry.Value("sched.speculation_acceptance", speculation_acceptance());
  // Per-scheme attribution sub-keys — additive to the schema above (the
  // original keys stay byte-stable; see kRunStatsSchema note).
  registry.Count("sched.bwp.backward_solves", bwp_backward_solves);
  registry.Count("sched.combined.backward_solves", combined_backward_solves);
  registry.Count("sched.fwp.speculative_solves", fwp_speculative_solves);
  registry.Count("sched.fwp.speculative_accepted", fwp_speculative_accepted);
  registry.Value("sched.fwp.speculation_acceptance", speculation_acceptance_fwp());
  registry.Count("sched.combined.speculative_solves", combined_speculative_solves);
  registry.Count("sched.combined.speculative_accepted", combined_speculative_accepted);
  registry.Value("sched.combined.speculation_acceptance",
                 speculation_acceptance_combined());
}

namespace {

// --- JSON formatting helpers ------------------------------------------------

void AppendEscaped(std::string& out, const std::string& text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void AppendString(std::string& out, const std::string& text) {
  out += '"';
  AppendEscaped(out, text);
  out += '"';
}

/// JSON number from a double.  %.17g round-trips; JSON has no Inf/NaN, so
/// those degrade to 0 (counters never legitimately produce them).
void AppendDouble(std::string& out, double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

void AppendCounterValue(std::string& out, const util::telemetry::Counter& counter) {
  if (counter.integral) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64,
                  static_cast<std::int64_t>(counter.value));
    out += buf;
  } else {
    AppendDouble(out, counter.value);
  }
}

// --- Chrome trace_event emission --------------------------------------------

/// One complete ("X") event.  `extra` is spliced verbatim after the duration
/// field — used for args/cname.
void AppendCompleteEvent(std::string& out, int pid, std::uint32_t tid,
                         const char* cat, const std::string& name, double ts_us,
                         double dur_us, const std::string& extra) {
  out += "{\"ph\":\"X\",\"pid\":";
  out += std::to_string(pid);
  out += ",\"tid\":";
  out += std::to_string(tid);
  out += ",\"cat\":\"";
  AppendEscaped(out, cat);
  out += "\",\"name\":";
  AppendString(out, name);
  out += ",\"ts\":";
  AppendDouble(out, ts_us);
  out += ",\"dur\":";
  AppendDouble(out, dur_us);
  out += extra;
  out += "}";
}

void AppendMetadataEvent(std::string& out, int pid, std::uint32_t tid,
                         const char* which, const std::string& value) {
  out += "{\"ph\":\"M\",\"pid\":";
  out += std::to_string(pid);
  out += ",\"tid\":";
  out += std::to_string(tid);
  out += ",\"name\":\"";
  out += which;
  out += "\",\"args\":{\"name\":";
  AppendString(out, value);
  out += "}}";
}

constexpr int kLivePid = 1;
constexpr int kReplayPid = 2;

}  // namespace

util::telemetry::CounterRegistry BuildRunCounters(const RunCounterInputs& inputs) {
  util::telemetry::CounterRegistry registry;
  inputs.stats.ExportCounters(registry);
  inputs.assembly.ExportCounters(registry);
  inputs.sched.ExportCounters(registry);
  inputs.spec.ExportCounters(registry);
  inputs.phases.ExportCounters(registry);
  registry.Count("replay.workers", static_cast<std::uint64_t>(
                                       inputs.replay.workers > 0 ? inputs.replay.workers : 0));
  registry.Value("replay.makespan_seconds", inputs.replay.makespan_seconds);
  registry.Value("replay.busy_seconds", inputs.replay.busy_seconds);
  registry.Value("replay.critical_path_seconds", inputs.replay.critical_path_seconds);
  registry.Value("replay.utilization", inputs.replay.utilization);
  const Ledger* ledger = inputs.ledger;
  registry.Count("ledger.records", ledger ? ledger->size() : 0);
  registry.Value("ledger.total_seconds", ledger ? ledger->TotalSeconds() : 0.0);
  registry.Value("ledger.useful_seconds", ledger ? ledger->UsefulSeconds() : 0.0);
  inputs.resilience.ExportCounters(registry);  // v1.2: appended after ledger.*
  inputs.reduction.ExportCounters(registry);   // v1.3: reduce.* after resilience
  inputs.batch.ExportCounters(registry);       // v1.4: batch.* after reduce.*
  inputs.stats.factor_cache.ExportCounters(registry);  // v1.5: appended last
  return registry;
}

std::string RunStatsJson(const RunInfo& info,
                         const util::telemetry::CounterRegistry& registry) {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"schema\": ";
  AppendString(out, kRunStatsSchema);
  out += ",\n  \"engine\": ";
  AppendString(out, info.engine);
  out += ",\n  \"scheme\": ";
  AppendString(out, info.scheme);
  out += ",\n  \"deck\": ";
  AppendString(out, info.deck);
  out += ",\n  \"threads\": ";
  out += std::to_string(info.threads);
  out += ",\n  \"dcop_strategy\": ";
  AppendString(out, info.dcop_strategy);
  out += ",\n  \"assembly_strategy\": ";
  AppendString(out, info.assembly_strategy);
  out += ",\n  \"completed\": ";
  out += info.completed ? "true" : "false";
  out += ",\n  \"abort_reason\": ";
  AppendString(out, info.abort_reason);
  out += ",\n  \"last_good_time\": ";
  AppendDouble(out, info.last_good_time);
  out += ",\n  \"counters\": {";
  bool first = true;
  for (const auto& counter : registry.counters()) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendString(out, counter.name);
    out += ": ";
    AppendCounterValue(out, counter);
  }
  out += "\n  }\n}\n";
  return out;
}

std::string ChromeTraceJson(const ChromeTraceInputs& inputs) {
  std::string out;
  out.reserve(1 << 16);
  out += "{\"traceEvents\":[";
  bool first = true;
  auto comma = [&] {
    if (!first) out += ",\n";
    else out += "\n";
    first = false;
  };

  // ---- pid 1: live telemetry spans, one thread track per lane ----
  if (!inputs.capture.events.empty() || !inputs.capture.lanes.empty()) {
    comma();
    AppendMetadataEvent(out, kLivePid, 0, "process_name", "live telemetry");
    for (const auto& lane : inputs.capture.lanes) {
      comma();
      AppendMetadataEvent(out, kLivePid, lane.lane, "thread_name", lane.label);
    }
    for (const auto& event : inputs.capture.events) {
      comma();
      if (event.instant) {
        out += "{\"ph\":\"i\",\"s\":\"t\",\"pid\":";
        out += std::to_string(kLivePid);
        out += ",\"tid\":";
        out += std::to_string(event.lane);
        out += ",\"cat\":\"";
        AppendEscaped(out, event.category);
        out += "\",\"name\":";
        AppendString(out, event.name);
        out += ",\"ts\":";
        AppendDouble(out, event.start_us);
        out += "}";
      } else {
        AppendCompleteEvent(out, kLivePid, event.lane, event.category, event.name,
                            event.start_us, event.dur_us, "");
      }
    }
  }

  // ---- pid 2: virtual replay of the ledger on k modeled workers ----
  if (inputs.ledger && inputs.replay_workers >= 1) {
    std::vector<ReplayTask> schedule;
    ReplayOnWorkers(*inputs.ledger, inputs.replay_workers, inputs.replay_cost, &schedule);
    // Measured seconds render in real microseconds; the iteration basis is a
    // virtual unit and renders one iteration per microsecond.
    const double scale = inputs.replay_cost == ReplayCost::kMeasuredSeconds ? 1e6 : 1.0;
    comma();
    AppendMetadataEvent(out, kReplayPid, 0, "process_name",
                        "modeled replay (" + std::to_string(inputs.replay_workers) +
                            " workers)");
    for (int w = 0; w < inputs.replay_workers; ++w) {
      comma();
      AppendMetadataEvent(out, kReplayPid, static_cast<std::uint32_t>(w), "thread_name",
                          "worker-" + std::to_string(w));
    }
    const auto& records = inputs.ledger->records();
    for (const auto& task : schedule) {
      comma();
      const SolveRecord& record = records[static_cast<std::size_t>(task.record)];
      std::string extra = ",\"args\":{\"id\":" + std::to_string(record.id) +
                          ",\"time_point\":";
      AppendDouble(extra, record.time_point);
      extra += ",\"newton_iterations\":" + std::to_string(record.newton_iterations);
      extra += record.useful ? ",\"wasted\":false}" : ",\"wasted\":true}";
      // Wasted speculative work gets Chrome's "terrible" palette slot so it
      // jumps out of the timeline.
      if (!record.useful) extra += ",\"cname\":\"terrible\"";
      std::string name = SolveKindName(record.kind);
      if (!record.useful) name += " (wasted)";
      AppendCompleteEvent(out, kReplayPid, static_cast<std::uint32_t>(task.worker),
                          "replay", name, task.start * scale,
                          (task.finish - task.start) * scale, extra);
    }
  }

  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

void WriteTextFile(const std::string& path, const std::string& contents) {
  std::ofstream stream(path, std::ios::binary);
  if (!stream) throw Error("cannot open '" + path + "' for writing");
  stream << contents;
  stream.flush();
  if (!stream) throw Error("failed writing '" + path + "'");
}

}  // namespace wavepipe::pipeline

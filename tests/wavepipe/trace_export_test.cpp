// Trace/stats exporters: run_stats.json schema parity across all three
// engines, Chrome trace_event well-formedness (parsed back with the testutil
// JSON parser), wasted-work flagging, and replay-schedule consistency.
#include "wavepipe/trace_export.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "util/error.hpp"

#include "circuits/generators.hpp"
#include "engine/transient.hpp"
#include "parallel/fine_grained.hpp"
#include "testutil/engines.hpp"
#include "testutil/json.hpp"
#include "util/telemetry.hpp"
#include "wavepipe/virtual_pipeline.hpp"
#include "wavepipe/wavepipe.hpp"

namespace wavepipe::pipeline {
namespace {

using testutil::JsonValue;
using testutil::ParseJson;

circuits::GeneratedCircuit SmallDeck() { return circuits::MakeRcLadder(10); }

/// A tiny hand-built ledger with one wasted speculative record.
Ledger MakeLedgerWithWaste() {
  Ledger ledger;
  SolveRecord dcop;
  dcop.kind = SolveKind::kDcop;
  dcop.seconds = 1e-3;
  dcop.newton_iterations = 4;
  const int dcop_id = ledger.Add(dcop);

  SolveRecord leading;
  leading.kind = SolveKind::kLeading;
  leading.time_point = 1e-6;
  leading.seconds = 2e-3;
  leading.newton_iterations = 3;
  leading.deps = {dcop_id};
  const int leading_id = ledger.Add(leading);

  SolveRecord wasted;
  wasted.kind = SolveKind::kSpeculative;
  wasted.time_point = 2e-6;
  wasted.seconds = 1.5e-3;
  wasted.newton_iterations = 2;
  wasted.deps = {dcop_id};
  wasted.useful = false;
  ledger.Add(wasted);

  SolveRecord tail;
  tail.kind = SolveKind::kLeading;
  tail.time_point = 2e-6;
  tail.seconds = 1e-3;
  tail.newton_iterations = 2;
  tail.deps = {leading_id};
  ledger.Add(tail);
  return ledger;
}

TEST(RunStatsJsonTest, SchemaIdenticalAcrossEngines) {
  const auto gen = SmallDeck();
  const engine::MnaStructure mna(*gen.circuit);

  // Serial engine.
  const auto serial = engine::RunTransientSerial(*gen.circuit, mna, gen.spec, {});
  RunCounterInputs serial_inputs;
  serial_inputs.stats = serial.stats;

  // Fine-grained engine.
  parallel::FineGrainedOptions fg_options;
  fg_options.threads = 2;
  const auto fine = parallel::RunTransientFineGrained(*gen.circuit, mna, gen.spec,
                                                      fg_options);
  RunCounterInputs fine_inputs;
  fine_inputs.stats = fine.stats;
  fine_inputs.assembly = fine.assembly;
  fine_inputs.phases = fine.phases;

  // WavePipe engine.
  WavePipeOptions wp_options;
  wp_options.scheme = Scheme::kCombined;
  wp_options.threads = 3;
  const auto wave = RunWavePipe(*gen.circuit, mna, gen.spec, wp_options);
  RunCounterInputs wave_inputs;
  wave_inputs.stats = wave.stats;
  wave_inputs.assembly = wave.assembly;
  wave_inputs.sched = wave.sched;
  wave_inputs.ledger = &wave.ledger;
  wave_inputs.replay = ReplayOnWorkers(wave.ledger, 3);

  const auto serial_names = BuildRunCounters(serial_inputs).Names();
  const auto fine_names = BuildRunCounters(fine_inputs).Names();
  const auto wave_names = BuildRunCounters(wave_inputs).Names();
  EXPECT_EQ(serial_names, fine_names);
  EXPECT_EQ(serial_names, wave_names);
  EXPECT_GT(serial_names.size(), 40u);

  // The serialized document parses back with the same keys, in order.
  RunInfo info;
  info.engine = "serial";
  info.deck = "rcladder10";
  const JsonValue doc = ParseJson(RunStatsJson(info, BuildRunCounters(serial_inputs)));
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("schema").string, kRunStatsSchema);
  EXPECT_EQ(doc.at("engine").string, "serial");
  EXPECT_EQ(doc.at("threads").number, 1.0);
  ASSERT_TRUE(doc.at("counters").is_object());
  EXPECT_EQ(doc.at("counters").object.size(), serial_names.size());
  for (const auto& name : serial_names) {
    EXPECT_TRUE(doc.at("counters").has(name)) << name;
  }
}

double CounterValue(const util::telemetry::CounterRegistry& registry,
                    const std::string& name) {
  for (const auto& counter : registry.counters()) {
    if (counter.name == name) return counter.value;
  }
  ADD_FAILURE() << "counter not found: " << name;
  return -1.0;
}

// The serial loop measures its own layers: device eval and factor/solve are
// timed inside SolveNewton, the remainder is control, and the four exported
// phases add up to the run's wall clock.
TEST(RunStatsJsonTest, SerialLoopPhasesAreMeasuredAndSumToWall) {
  const auto gen = circuits::MakeInverterChain(8);
  const engine::MnaStructure mna(*gen.circuit);
  for (const auto& engine : testutil::LoopEngines()) {
    SCOPED_TRACE(engine.name);
    const auto run = testutil::RunLoopEngine(engine, *gen.circuit, mna, gen.spec);
    ASSERT_TRUE(run.completed) << run.abort_reason;
    RunCounterInputs inputs;
    inputs.stats = run.stats;
    inputs.assembly = run.assembly;
    inputs.phases = run.phases;
    const auto registry = BuildRunCounters(inputs);

    EXPECT_GT(CounterValue(registry, "phases.model_eval_seconds"), 0.0);
    EXPECT_GT(CounterValue(registry, "phases.lu_seconds"), 0.0);
    const double sum = CounterValue(registry, "phases.model_eval_seconds") +
                       CounterValue(registry, "phases.reduction_seconds") +
                       CounterValue(registry, "phases.lu_seconds") +
                       CounterValue(registry, "phases.control_seconds");
    const double wall = CounterValue(registry, "transient.wall_seconds");
    ASSERT_GT(wall, 0.0);
    EXPECT_NEAR(sum, wall, 0.05 * wall);
  }
}

TEST(RunStatsJsonTest, PerSchemeSubKeysAttributeWorkToTheConfiguredScheme) {
  const auto gen = SmallDeck();
  const engine::MnaStructure mna(*gen.circuit);

  auto run = [&](Scheme scheme, int threads) {
    WavePipeOptions options;
    options.scheme = scheme;
    options.threads = threads;
    const auto result = RunWavePipe(*gen.circuit, mna, gen.spec, options);
    RunCounterInputs inputs;
    inputs.stats = result.stats;
    inputs.sched = result.sched;
    inputs.spec = result.spec;
    return BuildRunCounters(inputs);
  };

  // A forward run books its speculation under sched.fwp.*; the bwp/combined
  // sub-keys stay at their defaults (the schema is identical either way).
  const auto fwp = run(Scheme::kForward, 4);
  EXPECT_GT(CounterValue(fwp, "sched.fwp.speculative_solves"), 0.0);
  EXPECT_EQ(CounterValue(fwp, "sched.combined.speculative_solves"), 0.0);
  EXPECT_EQ(CounterValue(fwp, "sched.bwp.backward_solves"), 0.0);
  EXPECT_EQ(CounterValue(fwp, "sched.fwp.speculative_solves"),
            CounterValue(fwp, "sched.speculative_solves"));

  const auto bwp = run(Scheme::kBackward, 2);
  EXPECT_GT(CounterValue(bwp, "sched.bwp.backward_solves"), 0.0);
  EXPECT_EQ(CounterValue(bwp, "sched.fwp.speculative_solves"), 0.0);
  EXPECT_EQ(CounterValue(bwp, "sched.bwp.backward_solves"),
            CounterValue(bwp, "sched.backward_solves"));

  const auto combined = run(Scheme::kCombined, 4);
  EXPECT_GT(CounterValue(combined, "sched.combined.backward_solves"), 0.0);
  EXPECT_GT(CounterValue(combined, "sched.combined.speculative_solves"), 0.0);
  EXPECT_EQ(CounterValue(combined, "sched.fwp.speculative_solves"), 0.0);
  EXPECT_EQ(CounterValue(combined, "sched.bwp.backward_solves"), 0.0);

  // The per-scheme acceptance exports divide cleanly (0 when idle).
  EXPECT_EQ(CounterValue(fwp, "sched.combined.speculation_acceptance"), 0.0);
  EXPECT_GE(CounterValue(fwp, "sched.fwp.speculation_acceptance"), 0.0);
  EXPECT_LE(CounterValue(fwp, "sched.fwp.speculation_acceptance"), 1.0);
}

TEST(RunStatsJsonTest, SpecPolicyGroupExportsOnEveryEngine) {
  const auto gen = SmallDeck();
  const engine::MnaStructure mna(*gen.circuit);

  // An engine with no pipeline scheduler exports the spec.* defaults.
  const auto serial = engine::RunTransientSerial(*gen.circuit, mna, gen.spec, {});
  RunCounterInputs serial_inputs;
  serial_inputs.stats = serial.stats;
  const auto serial_counters = BuildRunCounters(serial_inputs);
  EXPECT_EQ(CounterValue(serial_counters, "spec.depth_decisions"), 0.0);
  EXPECT_EQ(CounterValue(serial_counters, "spec.event_snaps"), 0.0);
  EXPECT_EQ(CounterValue(serial_counters, "spec.poly.predictor_hits"), 0.0);
  EXPECT_EQ(CounterValue(serial_counters, "spec.highorder.predictor_misses"), 0.0);
  EXPECT_EQ(CounterValue(serial_counters, "spec.event.predictor_hits"), 0.0);

  // A pipelined run populates the depth ledger even in fixed mode (every
  // round's depth decision is counted; the policy just never steers).
  WavePipeOptions options;
  options.scheme = Scheme::kForward;
  options.threads = 4;
  const auto wave = RunWavePipe(*gen.circuit, mna, gen.spec, options);
  RunCounterInputs wave_inputs;
  wave_inputs.stats = wave.stats;
  wave_inputs.sched = wave.sched;
  wave_inputs.spec = wave.spec;
  const auto wave_counters = BuildRunCounters(wave_inputs);
  EXPECT_GT(CounterValue(wave_counters, "spec.depth_decisions"), 0.0);
  EXPECT_EQ(CounterValue(wave_counters, "spec.depth_raises"), 0.0);
  EXPECT_EQ(CounterValue(wave_counters, "spec.depth_cuts"), 0.0);
}

TEST(RunStatsJsonTest, SchemaTagIsPinned) {
  // v1.4 = v1.3 plus the appended batch-analysis group (batch.*).  Changing
  // this string (or the key sets below) is a schema bump: update
  // check_bench.py and the docs in trace_export.hpp alongside.
  EXPECT_STREQ(kRunStatsSchema, "wavepipe.run_stats.v1.4");
}

TEST(RunStatsJsonTest, ResilienceGroupExportsOnEveryEngine) {
  const auto gen = SmallDeck();
  const engine::MnaStructure mna(*gen.circuit);

  // Default run (no checkpointing, no budget): the v1.2 keys are present
  // with zero values on every engine, so the key set never depends on
  // whether durable-run machinery engaged.
  const auto serial = engine::RunTransientSerial(*gen.circuit, mna, gen.spec, {});
  RunCounterInputs inputs;
  inputs.stats = serial.stats;
  inputs.resilience = serial.resilience;
  const auto counters = BuildRunCounters(inputs);
  for (const char* key :
       {"ckpt.writes", "ckpt.write_failures", "ckpt.bytes_last", "ckpt.generation",
        "ckpt.resumed", "watchdog.stalls", "watchdog.escalations",
        "resilience.breaker_trips", "resilience.breaker_retrips",
        "resilience.breaker_reprobes", "resilience.trips.chord",
        "resilience.trips.bypass", "resilience.trips.partition",
        "resilience.trips.parallel_factor", "resilience.trips.parallel_assembly",
        "resilience.budget_exhausted"}) {
    EXPECT_EQ(CounterValue(counters, key), 0.0) << key;
  }

  // A checkpointing run populates ckpt.*.
  engine::SimOptions sim;
  sim.resilience.checkpoint_path = ::testing::TempDir() + "/trace_export_res.ckpt";
  sim.resilience.checkpoint_every_steps = 5;
  const auto ck_run = engine::RunTransientSerial(*gen.circuit, mna, gen.spec, sim);
  RunCounterInputs ck_inputs;
  ck_inputs.stats = ck_run.stats;
  ck_inputs.resilience = ck_run.resilience;
  const auto ck_counters = BuildRunCounters(ck_inputs);
  EXPECT_GT(CounterValue(ck_counters, "ckpt.writes"), 0.0);
  EXPECT_GT(CounterValue(ck_counters, "ckpt.bytes_last"), 0.0);
  std::remove((sim.resilience.checkpoint_path + ".a").c_str());
  std::remove((sim.resilience.checkpoint_path + ".b").c_str());
}

TEST(RunStatsJsonTest, OlderConsumersStillParseNewerDocuments) {
  // The schema grows additively: every v1.1 key keeps its name and position,
  // the v1.2 groups (ckpt./watchdog./resilience.) land strictly AFTER the
  // last v1.1 group (ledger.*), the v1.3 group (reduce.*) lands strictly
  // AFTER the last v1.2 key, and the v1.4 group (batch.*) lands strictly
  // AFTER the last v1.3 key.  A consumer of any older version that iterates
  // its own baseline keys therefore parses a newer document unchanged.  This
  // pins all three orderings.
  RunCounterInputs inputs;
  const auto names = BuildRunCounters(inputs).Names();
  std::size_t last_v11 = 0;
  std::size_t first_v12 = names.size();
  std::size_t last_v12 = 0;
  std::size_t first_v13 = names.size();
  std::size_t last_v13 = 0;
  std::size_t first_v14 = names.size();
  for (std::size_t i = 0; i < names.size(); ++i) {
    const bool v12 = names[i].rfind("ckpt.", 0) == 0 ||
                     names[i].rfind("watchdog.", 0) == 0 ||
                     names[i].rfind("resilience.", 0) == 0;
    const bool v13 = names[i].rfind("reduce.", 0) == 0;
    const bool v14 = names[i].rfind("batch.", 0) == 0;
    if (v14) {
      first_v14 = std::min(first_v14, i);
    } else if (v13) {
      first_v13 = std::min(first_v13, i);
      last_v13 = std::max(last_v13, i);
    } else if (v12) {
      first_v12 = std::min(first_v12, i);
      last_v12 = std::max(last_v12, i);
    } else {
      last_v11 = std::max(last_v11, i);
    }
  }
  ASSERT_LT(first_v12, names.size()) << "v1.2 groups missing from the registry";
  ASSERT_LT(first_v13, names.size()) << "v1.3 group missing from the registry";
  ASSERT_LT(first_v14, names.size()) << "v1.4 group missing from the registry";
  EXPECT_LT(last_v11, first_v12)
      << "v1.2 keys must append after every v1.1 key, not interleave";
  EXPECT_LT(last_v12, first_v13)
      << "v1.3 keys must append after every v1.2 key, not interleave";
  EXPECT_LT(last_v13, first_v14)
      << "v1.4 keys must append after every v1.3 key, not interleave";
  // The v1.1 ledger.* tail is still immediately before the v1.2 block, the
  // v1.3 reduce.* tail keeps its boundary key, and the v1.4 batch.* block is
  // the document's tail.
  ASSERT_GT(first_v12, 0u);
  EXPECT_EQ(names[last_v11], "ledger.useful_seconds");
  EXPECT_EQ(names[last_v13], "reduce.interior_expansions");
  EXPECT_EQ(names.back(), "batch.wall_seconds");
}

TEST(RunStatsJsonTest, ReduceGroupExportsOnEveryEngine) {
  const auto gen = SmallDeck();
  const engine::MnaStructure mna(*gen.circuit);

  // Default run (no --reduce): the v1.3 keys are present with zero values,
  // so the key set never depends on whether the reduction pass engaged.
  const auto serial = engine::RunTransientSerial(*gen.circuit, mna, gen.spec, {});
  RunCounterInputs inputs;
  inputs.stats = serial.stats;
  const auto counters = BuildRunCounters(inputs);
  for (const char* key :
       {"reduce.subnets", "reduce.nodes_eliminated", "reduce.devices_absorbed",
        "reduce.static_subnets", "reduce.max_interior", "reduce.max_ports",
        "reduce.interior_expansions"}) {
    EXPECT_EQ(CounterValue(counters, key), 0.0) << key;
  }

  // A reduced run's stats flow through verbatim.
  RunCounterInputs on_inputs;
  on_inputs.stats = serial.stats;
  on_inputs.reduction.subnets = 3;
  on_inputs.reduction.nodes_eliminated = 17;
  const auto on_counters = BuildRunCounters(on_inputs);
  EXPECT_EQ(CounterValue(on_counters, "reduce.subnets"), 3.0);
  EXPECT_EQ(CounterValue(on_counters, "reduce.nodes_eliminated"), 17.0);
}

TEST(RunStatsJsonTest, PartitionGroupExportsOnEveryEngine) {
  const auto gen = SmallDeck();
  const engine::MnaStructure mna(*gen.circuit);

  // Partition off (the default): the group is present with zero values, so
  // the key set stays structurally identical whether or not BBD ran.
  const auto off = engine::RunTransientSerial(*gen.circuit, mna, gen.spec, {});
  RunCounterInputs off_inputs;
  off_inputs.stats = off.stats;
  const auto off_counters = BuildRunCounters(off_inputs);
  for (const char* key :
       {"partition.pieces", "partition.interface_size", "partition.piece_imbalance",
        "partition.full_factors", "partition.refactors", "partition.solves",
        "partition.schur_factors", "partition.schur_nnz", "partition.schur_seconds"}) {
    EXPECT_EQ(CounterValue(off_counters, key), 0.0) << key;
  }

  // Partition on: the serial engine populates the group.
  engine::SimOptions sim;
  sim.partition_pieces = 2;
  const auto on = engine::RunTransientSerial(*gen.circuit, mna, gen.spec, sim);
  RunCounterInputs on_inputs;
  on_inputs.stats = on.stats;
  const auto on_counters = BuildRunCounters(on_inputs);
  EXPECT_GE(CounterValue(on_counters, "partition.pieces"), 1.0);
  EXPECT_GT(CounterValue(on_counters, "partition.solves"), 0.0);
  EXPECT_GT(CounterValue(on_counters, "partition.full_factors"), 0.0);
}

TEST(RunStatsJsonTest, HeaderStringsAreEscaped) {
  RunInfo info;
  info.engine = "serial";
  info.deck = "deck \"quoted\"\nline2";
  info.abort_reason = "tab\there";
  util::telemetry::CounterRegistry registry;
  registry.Count("one", 1);
  const JsonValue doc = ParseJson(RunStatsJson(info, registry));
  EXPECT_EQ(doc.at("deck").string, "deck \"quoted\"\nline2");
  EXPECT_EQ(doc.at("abort_reason").string, "tab\there");
}

TEST(ChromeTraceJsonTest, ParsesBackWithLanesAndWastedFlags) {
  ChromeTraceInputs inputs;
  // Lane labels are process-global and first-registration-wins: engines run
  // by other tests may already own lanes 0/1, so use ids private to this
  // test.
  if (util::telemetry::kSpansCompiledIn) {
    util::telemetry::StartCapture();
    {
      util::telemetry::ScopedLane lane(7, "test-driver");
      util::telemetry::Span span("round", "bwp");
    }
    {
      util::telemetry::ScopedLane lane(8, "test-slot");
      util::telemetry::Span span("solve", "time_point");
    }
    inputs.capture = util::telemetry::StopCapture();
    ASSERT_EQ(inputs.capture.events.size(), 2u);
  }

  const Ledger ledger = MakeLedgerWithWaste();
  inputs.ledger = &ledger;
  inputs.replay_workers = 2;

  const JsonValue doc = ParseJson(ChromeTraceJson(inputs));
  ASSERT_TRUE(doc.is_object());
  ASSERT_TRUE(doc.at("traceEvents").is_array());
  EXPECT_EQ(doc.at("displayTimeUnit").string, "ms");

  std::set<double> live_tids, replay_tids;
  std::map<std::string, std::string> thread_names;  // "pid/tid" -> name
  int wasted_events = 0;
  int complete_events = 0;
  for (const JsonValue& event : doc.at("traceEvents").array) {
    ASSERT_TRUE(event.is_object());
    const std::string ph = event.at("ph").string;
    const double pid = event.at("pid").number;
    const double tid = event.at("tid").number;
    if (ph == "M") {
      if (event.at("name").string == "thread_name") {
        thread_names[std::to_string(static_cast<int>(pid)) + "/" +
                     std::to_string(static_cast<int>(tid))] =
            event.at("args").at("name").string;
      }
      continue;
    }
    ASSERT_TRUE(ph == "X" || ph == "i") << ph;
    if (ph == "X") {
      ++complete_events;
      EXPECT_GE(event.at("dur").number, 0.0);
    }
    if (pid == 1.0) live_tids.insert(tid);
    if (pid == 2.0) {
      replay_tids.insert(tid);
      ASSERT_TRUE(event.has("args"));
      if (event.at("args").at("wasted").boolean) {
        ++wasted_events;
        EXPECT_EQ(event.at("cname").string, "terrible");
        EXPECT_NE(event.at("name").string.find("(wasted)"), std::string::npos);
      }
    }
  }

  // Replay lanes: 4 tasks on 2 workers, both engaged (the wasted speculative
  // solve runs concurrently with the leading chain).
  EXPECT_EQ(replay_tids.size(), 2u);
  EXPECT_EQ(thread_names["2/0"], "worker-0");
  EXPECT_EQ(thread_names["2/1"], "worker-1");
  EXPECT_EQ(wasted_events, 1);
  if (util::telemetry::kSpansCompiledIn) {
    EXPECT_EQ(live_tids.size(), 2u);
    EXPECT_TRUE(live_tids.count(7.0));
    EXPECT_TRUE(live_tids.count(8.0));
    EXPECT_EQ(thread_names["1/7"], "test-driver");
    EXPECT_EQ(thread_names["1/8"], "test-slot");
  }
  EXPECT_GE(complete_events, 4);
}

TEST(ReplayScheduleTest, ScheduleIsConsistentWithReplay) {
  const Ledger ledger = MakeLedgerWithWaste();
  std::vector<ReplayTask> schedule;
  const ReplayResult replay = ReplayOnWorkers(ledger, 2, ReplayCost::kMeasuredSeconds,
                                              &schedule);

  ASSERT_EQ(schedule.size(), ledger.size());
  double latest_finish = 0.0;
  std::map<int, std::vector<std::pair<double, double>>> per_worker;
  std::set<int> records_seen;
  for (const auto& task : schedule) {
    EXPECT_GE(task.worker, 0);
    EXPECT_LT(task.worker, 2);
    EXPECT_GE(task.finish, task.start);
    records_seen.insert(task.record);
    per_worker[task.worker].emplace_back(task.start, task.finish);
    latest_finish = std::max(latest_finish, task.finish);

    // Dependencies finished before this task started.
    const auto& record = ledger.records()[static_cast<std::size_t>(task.record)];
    for (const int dep : record.deps) {
      const auto it = std::find_if(schedule.begin(), schedule.end(),
                                   [&](const ReplayTask& t) { return t.record == dep; });
      ASSERT_NE(it, schedule.end());
      EXPECT_LE(it->finish, task.start + 1e-12);
    }
  }
  EXPECT_EQ(records_seen.size(), ledger.size());
  EXPECT_DOUBLE_EQ(latest_finish, replay.makespan_seconds);

  // No worker runs two tasks at once.
  for (auto& [worker, intervals] : per_worker) {
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      EXPECT_GE(intervals[i].first, intervals[i - 1].second - 1e-12)
          << "worker " << worker << " overlaps";
    }
  }
}

TEST(WriteTextFileTest, RoundTripsAndFailsOnBadPath) {
  const std::string path = ::testing::TempDir() + "/trace_export_roundtrip.json";
  WriteTextFile(path, "{\"ok\":true}\n");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buffer[64] = {};
  const std::size_t n = std::fread(buffer, 1, sizeof(buffer) - 1, f);
  std::fclose(f);
  EXPECT_EQ(std::string(buffer, n), "{\"ok\":true}\n");
  EXPECT_THROW(WriteTextFile("/nonexistent-dir/x.json", "x"), Error);
}

}  // namespace
}  // namespace wavepipe::pipeline

// perfbench: measured end-to-end benchmark of the wavepipe library.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// One process runs one workload, closed-loop: one job at a time, each job
// using at most kThreads threads.  The workload's deck text is generated from
// the seed (workloads.hpp); the process then
//   1. computes, untimed, a reference solution (serial engine, reltol/100,
//      tight hmax) and the 1-thread waveform hashes of the .mc batch;
//   2. runs one untimed warm-up of every configuration;
//   3. for --seconds, repeats a cycle: a batch of set-up repetitions
//      (parse -> elaborate -> MnaStructure), the five engine configurations
//      in an order that rotates from cycle to cycle, and the batch sweep,
//      timing each and checking every output against step 1; then a few
//      runs of the host probe (host_probe.hpp).
// With --trace 0 it reports the end-to-end metrics: a low quantile of each
// time, scaled by the host probe.  With --trace 1 every
// untraced set-up and engine run is followed at once by the same run under
// span capture, and it reports the per-layer metrics.  The last stdout line
// is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "batch/runner.hpp"
#include "batch/sweep.hpp"
#include "engine/mna.hpp"
#include "engine/transient.hpp"
#include "host_probe.hpp"
#include "netlist/elaborate.hpp"
#include "netlist/parser.hpp"
#include "parallel/fine_grained.hpp"
#include "reduce/reduce.hpp"
#include "spans.hpp"
#include "util/telemetry.hpp"
#include "wavepipe/virtual_pipeline.hpp"
#include "wavepipe/wavepipe.hpp"
#include "workloads.hpp"

namespace {

namespace wp = wavepipe;
namespace telemetry = wavepipe::util::telemetry;
using Clock = std::chrono::steady_clock;

constexpr int kThreads = 4;
constexpr int kMinCycles = 3;                   // timed cycles per run, at least
constexpr double kSetupSecondsPerCycle = 0.05;  // set-up repetitions of a cycle run
constexpr int kSetupMinReps = 3;                // this long, and at least this often
// End-to-end times report this quantile of a run's repetitions.  The host's
// vCPUs switch between a fast and a ~1.5x slower state every few seconds
// (neighbour load on shared cores); a low quantile reads the fast state
// steadily where the median flips between the two.
constexpr double kTimeQuantile = 0.1;
// Host probe runs per cycle, and the probe's kTimeQuantile time on the
// reference host (a 4-vCPU Intel Xeon VM).  Reported times are scaled by
// kReferenceProbeSeconds / (this run's probe time): see host_probe.hpp.
constexpr int kProbesPerCycle = 4;
constexpr double kReferenceProbeSeconds = 2.5e-3;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- configurations --------------------------------------------------------

enum class Config { kSerial, kFineGrained, kBwp, kCombined, kReduce };
constexpr Config kConfigs[] = {Config::kSerial, Config::kFineGrained, Config::kBwp,
                               Config::kCombined, Config::kReduce};

/// String literals: they double as span names, which must outlive a capture.
const char* ConfigName(Config c) {
  switch (c) {
    case Config::kSerial: return "serial";
    case Config::kFineGrained: return "finegrained";
    case Config::kBwp: return "bwp";
    case Config::kCombined: return "combined";
    case Config::kReduce: return "reduce";
  }
  return "?";
}

// ---- metrics ---------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"tran_serial_s", "s"},   {"tran_finegrained_s", "s"}, {"tran_bwp_s", "s"},
    {"tran_combined_s", "s"}, {"tran_reduce_s", "s"},      {"sweep_s", "s"},
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},       {"ok_ratio", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"netlist.parse_s", "s"},
    {"netlist.elaborate_s", "s"},
    {"engine.mna_build_s", "s"},
    {"engine.err_serial_v", "V"},
    {"engine.dcop_s", "s"},
    {"engine.time_points", "count"},
    {"engine.newton_iters", "count"},
    {"engine.step_accept_ratio", "ratio"},
    {"engine.solve_us_p50", "us"},
    {"engine.solve_us_p99", "us"},
    {"engine.lte_s", "s"},
    {"engine.control_s", "s"},
    {"devices.eval_s", "s"},
    {"devices.evals", "count"},
    {"sparse.factor_s", "s"},
    {"sparse.factors", "count"},
    {"sparse.refactor_ratio", "ratio"},
    {"sparse.solve_s", "s"},
    {"parallel.eval_s", "s"},
    {"parallel.merge_s", "s"},
    {"parallel.lu_s", "s"},
    {"parallel.control_s", "s"},
    {"wavepipe.err_v", "V"},
    {"wavepipe.rounds", "count"},
    {"wavepipe.spec_acceptance", "ratio"},
    {"wavepipe.useful_ratio", "ratio"},
    {"wavepipe.round_overhead_s", "s"},
    {"wavepipe.solve_inflation", "ratio"},
    {"wavepipe.lane_busy_ratio", "ratio"},
    {"wavepipe.bwp.rounds", "count"},
    {"wavepipe.bwp.useful_ratio", "ratio"},
    {"wavepipe.bwp.round_overhead_s", "s"},
    {"wavepipe.bwp.solve_inflation", "ratio"},
    {"wavepipe.bwp.lane_busy_ratio", "ratio"},
    {"wavepipe.speedup_bwp", "ratio"},
    {"wavepipe.speedup_combined", "ratio"},
    {"wavepipe.model_gap_bwp", "ratio"},
    {"wavepipe.model_gap_combined", "ratio"},
    {"reduce.err_v", "V"},
    {"reduce.pass_s", "s"},
    {"reduce.unknowns_after", "count"},
    {"reduce.nodes_eliminated", "count"},
    {"reduce.eval_s", "s"},
    {"batch.variant_s_p50", "s"},
    {"batch.variant_s_max", "s"},
    {"batch.pool_busy_ratio", "ratio"},
    {"batch.ordering_hit_ratio", "ratio"},
    {"batch.artifacts_build_s", "s"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.overhead_ratio.serial", "ratio"},
    {"trace.overhead_ratio.finegrained", "ratio"},
    {"trace.overhead_ratio.bwp", "ratio"},
    {"trace.overhead_ratio.combined", "ratio"},
    {"trace.overhead_ratio.reduce", "ratio"},
    {"trace.layer_coverage", "ratio"},
    {"trace.layer_coverage_reduce", "ratio"},
};

/// Named sample lists; a reported metric is a quantile of its samples.
class Samples {
 public:
  void Add(const std::string& name, double value) { samples_[name].push_back(value); }
  double Quantile(const std::string& name, double q) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : perfbench::Quantile(it->second, q);
  }
  double Median(const std::string& name) const { return Quantile(name, 0.5); }
  /// The reported value of an end-to-end time.
  double Time(const std::string& name) const { return Quantile(name, kTimeQuantile); }
  std::size_t Count(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? 0 : it->second.size();
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- the deck under test ---------------------------------------------------

struct Prepared {
  wp::netlist::ParsedNetlist parsed;
  wp::netlist::ElaboratedCircuit elab;
  std::unique_ptr<wp::engine::MnaStructure> mna;
};

/// The set-up path a user pays before any analysis: text -> parsed ->
/// elaborated -> MNA structure.
Prepared Setup(const std::string& deck) {
  Prepared p;
  {
    telemetry::Span span("bench", "parse");
    p.parsed = wp::netlist::ParseNetlist(deck);
  }
  {
    telemetry::Span span("bench", "elaborate");
    p.elab = wp::netlist::Elaborate(p.parsed);
  }
  {
    telemetry::Span span("bench", "mna_build");
    p.mna = std::make_unique<wp::engine::MnaStructure>(*p.elab.circuit);
  }
  return p;
}

// ---- one timed engine run --------------------------------------------------

struct RunOutput {
  double seconds = 0.0;
  std::string failure;  ///< exception text or abort reason; empty on success
  wp::engine::Trace trace;
  wp::engine::TransientStats stats;
  wp::parallel::PhaseBreakdown phases;
  wp::pipeline::PipelineSchedStats sched;
  wp::pipeline::Ledger ledger;
  wp::reduce::ReductionStats reduction;
  int unknowns_after = 0;
  telemetry::Capture capture;
};

wp::pipeline::WavePipeOptions PipelineOptions(Config c, const Prepared& p) {
  wp::pipeline::WavePipeOptions o;
  o.threads = kThreads;
  o.sim = p.elab.sim_options;
  if (c == Config::kBwp) {
    o.scheme = wp::pipeline::Scheme::kBackward;
    o.spec_policy.mode = wp::pipeline::SpecPolicyMode::kFixed;
  } else if (c == Config::kCombined) {
    o.scheme = wp::pipeline::Scheme::kCombined;
    o.spec_policy.mode = wp::pipeline::SpecPolicyMode::kAdaptive;
  } else {
    o.scheme = wp::pipeline::Scheme::kSerial;
  }
  return o;
}

template <typename Result>
void TakeCommon(RunOutput& out, Result&& r) {
  if (!r.completed) out.failure = "incomplete: " + r.abort_reason;
  out.trace = std::move(r.trace);
  out.stats = r.stats;
}

void RunBody(Config c, const Prepared& p, wp::netlist::ElaboratedCircuit* fresh,
             RunOutput& out) {
  const auto& e = p.elab;
  switch (c) {
    case Config::kSerial: {
      TakeCommon(out, wp::engine::RunTransientSerial(*e.circuit, *p.mna, e.spec,
                                                     e.sim_options));
      break;
    }
    case Config::kFineGrained: {
      wp::parallel::FineGrainedOptions o;
      o.threads = kThreads;
      o.sim = e.sim_options;
      auto r = wp::parallel::RunTransientFineGrained(*e.circuit, *p.mna, e.spec, o);
      out.phases = r.phases;
      TakeCommon(out, std::move(r));
      break;
    }
    case Config::kBwp:
    case Config::kCombined: {
      auto r = wp::pipeline::RunWavePipe(*e.circuit, *p.mna, e.spec, PipelineOptions(c, p));
      out.sched = r.sched;
      out.ledger = std::move(r.ledger);
      TakeCommon(out, std::move(r));
      break;
    }
    case Config::kReduce: {
      // The --reduce path of the CLI, pass included.
      std::vector<int> keep;
      for (const auto& ic : fresh->spec.initial_conditions) keep.push_back(ic.first);
      wp::reduce::ReductionResult red;
      {
        telemetry::Span span("bench", "reduce_pass");
        red = wp::reduce::Reduce(std::move(fresh->circuit), keep);
      }
      red.stats.interior_expansions += wp::reduce::RemapSpec(red, fresh->spec);
      out.reduction = red.stats;
      out.unknowns_after = red.circuit->num_unknowns();
      std::unique_ptr<wp::engine::MnaStructure> mna;
      {
        telemetry::Span span("bench", "reduce_mna");
        mna = std::make_unique<wp::engine::MnaStructure>(*red.circuit);
      }
      TakeCommon(out, wp::engine::RunTransientSerial(*red.circuit, *mna, fresh->spec,
                                                     e.sim_options));
      break;
    }
  }
}

RunOutput RunConfig(Config c, const Prepared& p, bool traced) {
  RunOutput out;
  // Reduction consumes its circuit: elaborate a fresh one before the clock.
  std::optional<wp::netlist::ElaboratedCircuit> fresh;
  if (c == Config::kReduce) fresh = wp::netlist::Elaborate(p.parsed);
  if (traced) telemetry::StartCapture();
  const auto t0 = Clock::now();
  try {
    telemetry::Span root("bench", ConfigName(c));
    RunBody(c, p, fresh ? &*fresh : nullptr, out);
  } catch (const std::exception& ex) {
    out.failure = std::string("threw: ") + ex.what();
  }
  out.seconds = SecondsSince(t0);
  if (traced) out.capture = telemetry::StopCapture();
  return out;
}

// ---- benchmark state -------------------------------------------------------

struct Bench {
  perfbench::Workload workload;
  bool traced_mode = false;
  std::uint64_t seed = 1;
  Prepared prepared;
  wp::engine::Trace reference;
  double tolerance_v = 0.0;              ///< largest deviation from `reference`
  double speculative_tolerance_v = 0.0;  ///< that passes, and for kCombined
  wp::netlist::ParsedNetlist sweep_parsed;
  std::vector<std::uint64_t> sweep_hashes;  ///< 1-thread reference, by variant
  wp::pipeline::Ledger serial_ledger;       ///< kSerial pipeline (model gap base)
  Samples e2e;
  Samples layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Fail(const std::string& what) {
    failed += 1;
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
};

/// Checks one engine run against the reference; returns its deviation.
double Verify(Bench& b, Config c, const RunOutput& out) {
  b.attempted += 1;
  double err = 0.0;
  std::string problem = out.failure;
  if (problem.empty()) {
    err = wp::engine::Trace::MaxDeviationAll(b.reference, out.trace);
    const double tolerance = c == Config::kCombined ? b.speculative_tolerance_v : b.tolerance_v;
    if (!(err <= tolerance)) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "deviation %.4g V exceeds tolerance %.4g V", err,
                    tolerance);
      problem = buf;
    }
  }
  if (!problem.empty()) b.Fail(std::string(ConfigName(c)) + ": " + problem);
  return err;
}

wp::batch::BatchOptions SweepOptions(const Bench& b, int threads) {
  wp::batch::BatchOptions o;
  o.threads = threads;
  o.mc_seed = b.seed + 1;
  o.sim = b.prepared.elab.sim_options;
  return o;
}

/// One timed batch sweep; every variant is one checked operation.
void RunSweep(Bench& b) {
  const auto t0 = Clock::now();
  std::optional<wp::batch::BatchResult> result;
  std::string failure;
  try {
    result = wp::batch::RunBatch(b.sweep_parsed, SweepOptions(b, kThreads));
  } catch (const std::exception& ex) {
    failure = ex.what();
  }
  const double seconds = SecondsSince(t0);
  b.e2e.Add("sweep_s", seconds);

  const std::size_t expected = b.sweep_hashes.size();
  b.attempted += expected;
  if (!result) {
    b.failed += expected;
    std::fprintf(stderr, "perfbench: FAILED sweep: %s\n", failure.c_str());
    return;
  }
  std::vector<double> walls;
  double wall_sum = 0.0;
  for (std::size_t i = 0; i < expected; ++i) {
    if (i >= result->variants.size()) {
      b.Fail("sweep variant " + std::to_string(i) + ": missing");
      continue;
    }
    const auto& v = result->variants[i];
    if (!v.ok) {
      b.Fail("sweep variant " + std::to_string(i) + ": " + v.error);
    } else if (v.waveform_hash != b.sweep_hashes[i]) {
      b.Fail("sweep variant " + std::to_string(i) + ": waveform differs from 1-thread run");
    }
    walls.push_back(v.wall_seconds);
    wall_sum += v.wall_seconds;
  }
  if (b.traced_mode) {
    const auto& s = result->stats;
    b.layer.Add("batch.variant_s_p50", perfbench::Median(walls));
    b.layer.Add("batch.variant_s_max", perfbench::Quantile(walls, 1.0));
    b.layer.Add("batch.pool_busy_ratio", Ratio(wall_sum, kThreads * seconds));
    b.layer.Add("batch.ordering_hit_ratio",
                Ratio(static_cast<double>(s.ordering_hits),
                      static_cast<double>(s.ordering_hits + s.ordering_misses)));
    b.layer.Add("batch.artifacts_build_s", s.artifacts_build_seconds);
  }
}

/// Modeled pipeline speedup: the kSerial ledger on one worker over this
/// ledger on kThreads workers (the repo's virtual-time replay).
double ModeledSpeedup(const Bench& b, const wp::pipeline::Ledger& ledger) {
  const double base = wp::pipeline::ReplayOnWorkers(b.serial_ledger, 1).makespan_seconds;
  return Ratio(base, wp::pipeline::ReplayOnWorkers(ledger, kThreads).makespan_seconds);
}

/// Per-layer samples of one traced run.
void AttributeRun(Bench& b, Config c, const RunOutput& out) {
  const auto& events = out.capture.events;
  const perfbench::Attribution a = perfbench::Attribute(events);
  const perfbench::SpanTotals root = a.Of("bench", ConfigName(c));
  const double root_us = root.total_us;
  const auto s = [](double us) { return us * 1e-6; };
  auto& L = b.layer;
  const std::string name = ConfigName(c);

  const auto solve_us = perfbench::Durations(events, "solve", "time_point");
  const double sparse_factor_us = a.Of("factor", "lu_factor").total_us +
                                  a.Of("factor", "bbd_factor").total_us;
  const double sparse_solve_us = a.Of("solve", "triangular_solve").total_us +
                                 a.Of("solve", "chord_step").total_us;
  // Everything below the root span that some layer claims.
  const double covered_us = a.SelfTotalUs() - root.self_us;

  switch (c) {
    case Config::kSerial: {
      const auto& st = out.stats;
      const double attempts = static_cast<double>(
          st.steps_accepted + st.steps_rejected_lte + st.steps_rejected_newton);
      L.Add("engine.dcop_s", s(a.Of("solve", "dc_operating_point").total_us));
      L.Add("engine.time_points", static_cast<double>(solve_us.size()));
      L.Add("engine.newton_iters", static_cast<double>(st.newton_iterations));
      L.Add("engine.step_accept_ratio", Ratio(static_cast<double>(st.steps_accepted), attempts));
      L.Add("engine.solve_us_p50", perfbench::Quantile(solve_us, 0.5));
      L.Add("engine.solve_us_p99", perfbench::Quantile(solve_us, 0.99));
      L.Add("engine.lte_s", s(a.Of("lte", "assess_step").total_us));
      L.Add("engine.control_s", s(a.Of("solve", "time_point").self_us));
      L.Add("devices.eval_s", s(a.Of("assembly", "eval_devices").self_us));
      L.Add("devices.evals", static_cast<double>(a.Of("assembly", "eval_devices").count));
      L.Add("sparse.factor_s", s(sparse_factor_us));
      L.Add("sparse.factors", static_cast<double>(a.Of("factor", "lu_factor").count +
                                                  a.Of("factor", "bbd_factor").count));
      L.Add("sparse.refactor_ratio",
            Ratio(static_cast<double>(st.lu_refactors),
                  static_cast<double>(st.lu_full_factors + st.lu_refactors)));
      L.Add("sparse.solve_s", s(sparse_solve_us));
      L.Add("trace.layer_coverage", Ratio(covered_us, root_us));
      break;
    }
    case Config::kFineGrained:
      L.Add("parallel.eval_s", out.phases.model_eval);
      L.Add("parallel.merge_s", out.phases.reduction);
      L.Add("parallel.lu_s", out.phases.lu);
      L.Add("parallel.control_s", out.phases.control);
      break;
    case Config::kBwp:
    case Config::kCombined: {
      const std::string pre = c == Config::kBwp ? "wavepipe.bwp." : "wavepipe.";
      double busy_us = 0.0;
      for (const auto& [lane, totals] : a.by_lane) {
        if (lane >= 1) busy_us += totals.busy_us;
      }
      L.Add(pre + "rounds", static_cast<double>(out.sched.rounds));
      L.Add(pre + "useful_ratio", Ratio(out.ledger.UsefulSeconds(), out.ledger.TotalSeconds()));
      L.Add(pre + "round_overhead_s", s(perfbench::RoundOverheadUs(events)));
      L.Add(pre + "lane_busy_ratio", Ratio(busy_us, kThreads * root_us));
      L.Add("_solve_p50." + name, perfbench::Quantile(solve_us, 0.5));
      if (c == Config::kCombined) {
        L.Add("wavepipe.spec_acceptance", out.sched.speculation_acceptance());
      }
      break;
    }
    case Config::kReduce:
      L.Add("reduce.pass_s", s(a.Of("bench", "reduce_pass").total_us));
      L.Add("reduce.unknowns_after", out.unknowns_after);
      L.Add("reduce.nodes_eliminated", static_cast<double>(out.reduction.nodes_eliminated));
      L.Add("reduce.eval_s", s(a.Of("assembly", "eval_devices").self_us));
      L.Add("trace.layer_coverage_reduce", Ratio(covered_us, root_us));
      break;
  }
}

/// The set-up repetitions of one cycle.  Each builds a Prepared of its own
/// and drops it outside the timed interval.  In traced mode every untraced
/// repetition is followed by a traced one, which gives the per-layer split.
void SetupBatch(Bench& b) {
  const auto t0 = Clock::now();
  for (int rep = 0; rep < kSetupMinReps || SecondsSince(t0) < kSetupSecondsPerCycle; ++rep) {
    const auto t = Clock::now();
    const Prepared untraced = Setup(b.workload.deck);
    b.e2e.Add("setup_s", SecondsSince(t));
    if (!b.traced_mode) continue;
    telemetry::StartCapture();
    const Prepared traced = Setup(b.workload.deck);
    const telemetry::Capture cap = telemetry::StopCapture();
    const perfbench::Attribution a = perfbench::Attribute(cap.events);
    b.layer.Add("netlist.parse_s", a.Of("bench", "parse").total_us * 1e-6);
    b.layer.Add("netlist.elaborate_s", a.Of("bench", "elaborate").total_us * 1e-6);
    b.layer.Add("engine.mna_build_s", a.Of("bench", "mna_build").total_us * 1e-6);
  }
}

/// One cycle: set-up repetitions, every configuration once, then one sweep.
/// The configurations start at a different one in each cycle, so no
/// configuration always runs right after the same neighbour.  In traced mode
/// each configuration's traced run follows its untraced run directly, and the
/// pair gives its tracing overhead.
void Cycle(Bench& b, std::size_t index, bool record) {
  if (record) SetupBatch(b);
  double traced_sum = 0.0, untraced_sum = 0.0;
  const std::size_t n = std::size(kConfigs);
  for (std::size_t k = 0; k < n; ++k) {
    const Config c = kConfigs[(index + k) % n];
    const RunOutput out = RunConfig(c, b.prepared, /*traced=*/false);
    if (!record) continue;
    const std::string name = ConfigName(c);
    b.e2e.Add("tran_" + name + "_s", out.seconds);
    b.e2e.Add("_err." + name, Verify(b, c, out));
    if (!b.traced_mode) continue;
    if (c == Config::kBwp || c == Config::kCombined) {
      b.layer.Add("_modeled." + name, ModeledSpeedup(b, out.ledger));
    }
    const RunOutput traced = RunConfig(c, b.prepared, /*traced=*/true);
    Verify(b, c, traced);
    AttributeRun(b, c, traced);
    b.layer.Add("trace.overhead_ratio." + name, Ratio(traced.seconds, out.seconds));
    traced_sum += traced.seconds;
    untraced_sum += out.seconds;
  }
  if (!record) {
    wp::batch::RunBatch(b.sweep_parsed, SweepOptions(b, kThreads));
    return;
  }
  if (b.traced_mode) b.layer.Add("trace.overhead_ratio", Ratio(traced_sum, untraced_sum));
  RunSweep(b);
}

void TimedCycles(Bench& b, double seconds) {
  const auto t0 = Clock::now();
  for (std::size_t cycle = 0; cycle < kMinCycles || SecondsSince(t0) < seconds; ++cycle) {
    Cycle(b, cycle, /*record=*/true);
    for (int i = 0; i < kProbesPerCycle; ++i) b.e2e.Add("_probe_s", perfbench::HostProbeSeconds());
  }
}

/// Largest excursion of any probe of `t` from its value at the first sample:
/// the size of the signal the accuracy check looks at.
double LargestSwing(const wp::engine::Trace& t) {
  double swing = 0.0;
  for (std::size_t p = 0; p < t.probes().size(); ++p) {
    for (std::size_t i = 0; i < t.num_samples(); ++i) {
      swing = std::max(swing, std::abs(t.value(i, p) - t.value(0, p)));
    }
  }
  return swing;
}

void ComputeReferences(Bench& b) {
  // Reference waveform: serial engine at reltol/100 with a tight hmax.
  const auto& e = b.prepared.elab;
  wp::engine::SimOptions tight = e.sim_options;
  tight.reltol /= 100.0;
  tight.hmax = (e.spec.tstop - e.spec.tstart) / 2000.0;
  auto ref = wp::engine::RunTransientSerial(*e.circuit, *b.prepared.mna, e.spec, tight);
  if (!ref.completed) throw std::runtime_error("reference run incomplete: " + ref.abort_reason);
  b.reference = std::move(ref.trace);
  const double swing = LargestSwing(b.reference);
  b.tolerance_v = b.workload.err_tolerance_share * swing;
  b.speculative_tolerance_v = b.workload.speculative_err_tolerance_share * swing;
  std::fprintf(stderr, "perfbench: reference swing %.4g V, tolerance %.4g V (combined %.4g V)\n",
               swing, b.tolerance_v, b.speculative_tolerance_v);

  b.sweep_parsed = wp::netlist::ParseNetlist(b.workload.sweep_deck);
  const auto batch = wp::batch::RunBatch(b.sweep_parsed, SweepOptions(b, 1));
  for (const auto& v : batch.variants) {
    if (!v.ok) throw std::runtime_error("reference sweep variant failed: " + v.error);
    b.sweep_hashes.push_back(v.waveform_hash);
  }

  if (b.traced_mode) {
    auto serial = wp::pipeline::RunWavePipe(*e.circuit, *b.prepared.mna, e.spec,
                                            PipelineOptions(Config::kSerial, b.prepared));
    b.serial_ledger = std::move(serial.ledger);
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- reporting ---------------------------------------------------------------

struct Reported {
  double value;
  std::size_t samples;
};

std::map<std::string, Reported> EndToEnd(const Bench& b) {
  const Samples& e = b.e2e;
  const double probe = e.Time("_probe_s");
  const double scale = Ratio(kReferenceProbeSeconds, probe);
  std::printf("  host probe %.4g ms (reference %.4g ms, n=%zu): times scaled by %.4f\n",
              probe * 1e3, kReferenceProbeSeconds * 1e3, e.Count("_probe_s"), scale);
  std::map<std::string, Reported> m;
  const auto time = [&](const std::string& key) -> Reported {
    return {e.Time(key) * scale, e.Count(key)};
  };
  for (const Config c : kConfigs) {
    const std::string key = std::string("tran_") + ConfigName(c) + "_s";
    m[key] = time(key);
  }
  m["sweep_s"] = time("sweep_s");
  m["setup_s"] = time("setup_s");
  m["peak_rss_mb"] = {PeakRssMb(), 1};
  m["ok_ratio"] = {Ratio(static_cast<double>(b.attempted - b.failed),
                         static_cast<double>(b.attempted)),
                   b.attempted};
  return m;
}

std::map<std::string, Reported> PerLayer(const Bench& b) {
  const Samples& L = b.layer;
  std::map<std::string, Reported> m;
  for (const MetricDef& def : kPerLayer) m[def.name] = {L.Median(def.name), L.Count(def.name)};

  // Deviation from the reference: the worse of each pair of configurations.
  const Samples& e = b.e2e;
  const auto worse = [&](const char* x, const char* y) -> Reported {
    const std::string kx = std::string("_err.") + x, ky = std::string("_err.") + y;
    return {std::max(e.Median(kx), e.Median(ky)), e.Count(kx) + e.Count(ky)};
  };
  m["engine.err_serial_v"] = worse("serial", "finegrained");
  m["wavepipe.err_v"] = worse("bwp", "combined");
  m["reduce.err_v"] = {e.Median("_err.reduce"), e.Count("_err.reduce")};

  const double serial_p50 = L.Median("engine.solve_us_p50");
  const double tran_serial = b.e2e.Time("tran_serial_s");
  for (const Config c : {Config::kBwp, Config::kCombined}) {
    const std::string name = ConfigName(c);
    const std::string pre = c == Config::kBwp ? "wavepipe.bwp." : "wavepipe.";
    m[pre + "solve_inflation"] = {Ratio(L.Median("_solve_p50." + name), serial_p50),
                                  L.Count("_solve_p50." + name)};
    const double measured = Ratio(tran_serial, b.e2e.Time("tran_" + name + "_s"));
    m["wavepipe.speedup_" + name] = {measured, b.e2e.Count("tran_" + name + "_s")};
    m["wavepipe.model_gap_" + name] = {Ratio(L.Median("_modeled." + name), measured),
                                       L.Count("_modeled." + name)};
  }
  return m;
}

void AppendNumber(std::string& out, double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

/// Human-readable table on stdout, then the one-line JSON result.
bool Report(const Bench& b, const MetricDef* defs, std::size_t n,
            const std::map<std::string, Reported>& values) {
  bool finite = true;
  std::string json = "{\"correct\": ";
  json += b.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(b.attempted);
  json += ", \"failed\": " + std::to_string(b.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = values.find(defs[i].name);
    double v = it == values.end() ? std::nan("") : it->second.value;
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", defs[i].name);
      finite = false;
      v = 0.0;
    }
    std::printf("  %-34s %14.6g %-6s (n=%zu)\n", defs[i].name, v, defs[i].unit,
                it == values.end() ? 0 : it->second.samples);
    if (i > 0) json += ", ";
    json += "\"" + std::string(defs[i].name) + "\": {\"value\": ";
    AppendNumber(json, v);
    json += ", \"unit\": \"" + std::string(defs[i].unit) + "\"}";
  }
  json += "}}";
  std::printf("  fail_ratio = %llu / %llu operations\n",
              static_cast<unsigned long long>(b.failed),
              static_cast<unsigned long long>(b.attempted));
  std::printf("%s\n", json.c_str());
  return finite;
}

// ---- command line ------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  try {
    Bench b;
    b.workload = perfbench::MakeWorkload(args.workload, args.seed);
    b.seed = args.seed;
    b.traced_mode = args.trace;

    auto phase = Clock::now();
    const auto log_phase = [&phase](const char* what) {
      std::fprintf(stderr, "perfbench: %s took %.2f s\n", what, SecondsSince(phase));
      phase = Clock::now();
    };
    b.prepared = Setup(b.workload.deck);
    ComputeReferences(b);
    log_phase("set-up and reference runs");
    Cycle(b, 0, /*record=*/false);  // warm-up
    log_phase("warm-up");
    TimedCycles(b, args.seconds);
    log_phase("timed cycles");
    return (args.trace ? Report(b, kPerLayer, std::size(kPerLayer), PerLayer(b))
                       : Report(b, kEndToEnd, std::size(kEndToEnd), EndToEnd(b)))
               ? 0
               : 1;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 1;
  }
}

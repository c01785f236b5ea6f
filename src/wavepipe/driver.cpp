#include "wavepipe/driver.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "engine/rescue.hpp"
#include "parallel/coloring.hpp"
#include "partition/partitioner.hpp"
#include "util/checkpoint.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace wavepipe::pipeline {

const char* SchemeName(Scheme scheme) {
  switch (scheme) {
    case Scheme::kSerial: return "serial";
    case Scheme::kBackward: return "bwp";
    case Scheme::kForward: return "fwp";
    case Scheme::kCombined: return "combined";
  }
  return "?";
}

PipelineDriver::PipelineDriver(const engine::Circuit& circuit,
                               const engine::MnaStructure& structure,
                               const engine::TransientSpec& spec,
                               const WavePipeOptions& options)
    : circuit_(circuit),
      structure_(structure),
      spec_(spec),
      options_(options),
      limits_(engine::StepLimits::FromSpec(spec, options.sim)),
      history_(options.sim.history_depth),
      sink_(options.sim.resilience, result_.resilience),
      budget_(options.sim.resilience),
      watchdog_(options.sim.resilience, result_.resilience),
      breakers_(options.sim.resilience, result_.resilience) {
  WP_ASSERT(options_.threads >= 1);
  if (options_.scheme == Scheme::kSerial) options_.threads = 1;
  if (options_.scheme == Scheme::kCombined && options_.threads < 3) {
    // Combined needs one backward + one forward helper; degrade gracefully.
    options_.threads = 3;
  }
  breakpoints_ = circuit.CollectBreakpoints(spec.tstart, spec.tstop);
  policy_ = SpeculationPolicy(options_.spec_policy, options_.bwp_backward_fraction);

  // Fixed mode keeps one context per thread (slot indices never exceed the
  // thread count).  The adaptive policy may speculate deeper than the thread
  // count — the extra solves queue on the same pool — so it needs a context
  // slot for the deepest chain plus the leading solve and backward helpers.
  int slots = options_.threads;
  if (policy_.adaptive() && options_.scheme != Scheme::kSerial) {
    slots = std::max(slots, 3 + policy_.options().max_depth);
  }
  contexts_.reserve(static_cast<std::size_t>(slots));
  for (int i = 0; i < slots; ++i) {
    contexts_.push_back(std::make_unique<engine::SolveContext>(circuit, structure));
    // Every slot may be solving at once, so the slots split one run budget.
    contexts_.back()->factor_cache.Configure(
        engine::FactorCache::ShareOfRun(static_cast<std::size_t>(slots)));
  }
  // The driver thread solves every round's leading point; the pool's
  // workers take the helpers.
  pool_ = util::ThreadPool::ForThreads(options_.threads);

  // Intra-solve parallelism: ONE shared worker pool serves both colored
  // assembly and level-scheduled LU refactorization (they alternate within a
  // Newton iteration, never overlap); the solving thread runs one share of
  // each fork-join.  This pool is distinct from pool_, whose workers run
  // whole pipelined solves: a fork-join from a pool's own worker runs
  // inline, so a shared pool would leave helper solves no intra-solve
  // workers.
  intra_pool_ = util::ThreadPool::ForThreads(
      std::max(options_.assembly_threads, options_.factor_threads));

  // Colored assembly: let the cost model decide, but only attach a COLORED
  // assembler.  The reduction fallback owns private buffers and can't serve
  // concurrent contexts — if the graph isn't profitably colorable, pipelined
  // solves keep the plain serial device loop.
  if (options_.assembly_threads > 1) {
    auto assembler =
        parallel::MakeAssembler(parallel::AssemblyMode::kAuto, circuit, structure,
                                options_.assembly_threads, {}, intra_pool_.get());
    if (std::strcmp(assembler->stats().strategy, "colored") == 0) {
      assembler_ = std::move(assembler);
      for (auto& ctx : contexts_) ctx->assembler = assembler_.get();
    }
  }

  // Level-scheduled LU: per-context opt-in; the per-level cost model inside
  // SparseLu still falls back to the serial kernels when levels are thin.
  if (options_.factor_threads > 1) {
    for (auto& ctx : contexts_) ctx->factor_pool = intra_pool_.get();
  }

  // Latency bypass / chord Newton: per-context caches and factor-reuse
  // state, so pipelined solves on different contexts never share them.
  for (auto& ctx : contexts_) ctx->ConfigureAcceleration(options_.sim);
  sparse::OrderingCache* const ordering_cache = options_.sim.ordering_cache != nullptr
                                                    ? options_.sim.ordering_cache
                                                    : &ordering_cache_;
  for (auto& ctx : contexts_) ctx->lu.set_ordering_cache(ordering_cache);
  chord_configured_ = options_.sim.chord_newton;
  for (auto& ctx : contexts_) ctx->record_factor_seeds = sink_.enabled();

  // Domain decomposition: ONE plan computed for the shared pattern, handed
  // to every context (each keeps its own numeric BbdSolver — piece factors
  // are per-context state exactly like ctx.lu).  Piece-parallel factor/solve
  // runs on the intra-solve pool for the same no-deadlock reason as above.
  if (options_.sim.partition_pieces > 0) {
    const auto plan =
        options_.sim.partition_plan != nullptr
            ? options_.sim.partition_plan
            : partition::PartitionPattern(structure.pattern(),
                                          options_.sim.partition_pieces);
    for (auto& ctx : contexts_) ctx->ConfigurePartition(plan, ordering_cache);
  }
}

bool PipelineDriver::Done() const {
  return engine::TransientHorizonReached(history_.newest_time(), spec_.tstop);
}

WavePipeResult PipelineDriver::Run() {
  // The round loop is telemetry lane 0; each context slot's solves land on
  // lane slot+1 (SolveOn), which the Chrome exporter renders as one track
  // per slot.  Lanes are named once here, not per solve: registration takes
  // the registry's mutex, and every solve of a round would take it at once.
  util::telemetry::ScopedLane lane(0, "driver");
  for (std::size_t slot = 0; slot < contexts_.size(); ++slot) {
    util::telemetry::RegisterLane(static_cast<std::uint32_t>(slot) + 1,
                                  "slot-" + std::to_string(slot));
  }
  total_timer_.Reset();
  result_.trace = engine::Trace(spec_.probes.size() > 0
                                    ? spec_.probes
                                    : engine::ProbeSet::FirstNodes(circuit_.num_nodes(), 16));
  result_.trace.ReserveEstimate(spec_.tstop - spec_.tstart, limits_.hmin);

  // Stall watchdog sources: every context's Newton heartbeat plus the worker
  // pool's task counters — the sampling window sees both stuck solves and a
  // wedged pool.
  for (auto& ctx : contexts_) watchdog_.AddSource(&ctx->heartbeat);
  if (pool_) {
    watchdog_.AddSource(&pool_->tasks_started_heartbeat());
    watchdog_.AddSource(&pool_->tasks_completed_heartbeat());
  }
  watchdog_.Start();

  if (options_.sim.resilience.resume != nullptr) {
    // Resume at the round barrier the checkpoint captured; the DC operating
    // point is already inside the restored history/trace/ledger.
    RestoreFromCheckpoint(*options_.sim.resilience.resume);
  } else {
    // Sequential prologue: DC operating point on context 0.
    engine::SolveContext& ctx0 = *contexts_[0];
    util::ThreadCpuTimer dc_timer;
    engine::DcopResult dcop;
    try {
      dcop = engine::SolveDcOperatingPoint(ctx0, options_.sim, spec_.initial_conditions);
    } catch (const Error& error) {
      watchdog_.Finish();
      result_.completed = false;
      result_.abort_reason = error.what();
      result_.last_good_time = spec_.tstart;
      CloseBooks();
      return std::move(result_);
    }
    result_.stats.dcop_strategy = dcop.strategy;

    SolveRecord dc_record;
    dc_record.kind = SolveKind::kDcop;
    dc_record.time_point = spec_.tstart;
    dc_record.seconds = dc_timer.Seconds();
    dc_record.newton_iterations = dcop.newton.iterations;
    const int dc_id = result_.ledger.Add(dc_record);

    // Seed history/trace with the operating point.  Not counted as an
    // accepted step (the serial engine doesn't count it either).
    const engine::SolutionPointPtr dc_point = engine::MakeDcSolutionPoint(ctx0, spec_.tstart);
    history_.Add(dc_point);
    ledger_id_of_point_[dc_point.get()] = dc_id;
    result_.trace.Record(dc_point->time, dc_point->x, dc_point->q);
    result_.final_point = dc_point;

    h_ = limits_.h0;
    restart_ = true;
    steps_since_restart_ = 0;
    last_leading_time_ = spec_.tstart;
  }

  while (!Done() && !aborted_) {
    result_.sched.rounds += 1;
    Scheme scheme = options_.scheme;
    // Quarantine: after repeated leading failures the pipelined schemes run
    // their cooldown rounds through the serial path — same LTE test, same
    // acceptance, just no speculative helpers multiplying the blast radius.
    if (quarantine_rounds_left_ > 0 && scheme != Scheme::kSerial) {
      scheme = Scheme::kSerial;
      --quarantine_rounds_left_;
      result_.sched.quarantined_rounds += 1;
    }
    switch (scheme) {
      case Scheme::kSerial: {
        WP_TSPAN("round", "serial");
        RunRoundSerial();
        break;
      }
      case Scheme::kBackward: {
        WP_TSPAN("round", "bwp");
        RunRoundBackward();
        break;
      }
      case Scheme::kForward: {
        WP_TSPAN("round", "fwp");
        RunRoundForward();
        break;
      }
      case Scheme::kCombined: {
        WP_TSPAN("round", "combined");
        RunRoundCombined();
        break;
      }
    }
    // Rounds are the pipeline's quiescent checkpoint boundaries: every solve
    // joined, only the driver thread alive.
    RoundBarrier();
  }

  result_.completed = !aborted_;
  result_.abort_reason = abort_reason_;
  result_.last_good_time = history_.newest_time();
  result_.spec = policy_.stats();

  watchdog_.Finish();
  // One final snapshot on EVERY exit (completion, budget, watchdog, rescue
  // exhaustion) — the newest round barrier is always resumable.  Runs BEFORE
  // the absorption below: Snapshot() folds context stats into its own copy.
  sink_.WriteFinal([this] { return Snapshot(); });

  if (assembler_) result_.assembly = assembler_->stats();
  CloseBooks();
  for (std::size_t i = 0; i < contexts_.size(); ++i) {
    const auto& ctx = contexts_[i];
    result_.stats.AbsorbLuStats(ctx->lu.stats());
    result_.stats.AbsorbFactorCache(ctx->factor_cache);
    if (ctx->bbd.configured()) result_.stats.AbsorbPartitionStats(NetBbdStats(i));
    result_.stats.bypassed_evals += ctx->bypass.bypassed_evals();
    result_.stats.bypass_full_evals += ctx->bypass.full_evals();
  }
  return std::move(result_);
}

PipelineDriver::Clip PipelineDriver::ClipStep(double t_from, double h) {
  return engine::ClipStepToSchedule(t_from, h, spec_.tstop, breakpoints_,
                                    next_breakpoint_, limits_.hmin);
}

void PipelineDriver::DrainError(std::exception_ptr& error, engine::StepSolveResult& result) {
  if (!error) return;
  try {
    std::rethrow_exception(std::exchange(error, nullptr));
  } catch (const Error& thrown) {
    // An injected fault, a singular pivot, a poisoned model evaluation: the
    // round's normal failure handling owns the policy.
    result_.sched.drained_task_errors += 1;
    result = engine::StepSolveResult{};
    result.converged = false;
    result.failure = thrown.what();
  }
}

engine::StepSolveResult PipelineDriver::SolveOn(int slot, const engine::HistoryWindow& window,
                                                double t_new, bool restart,
                                                std::span<const double> seed_x) {
  WP_ASSERT(slot >= 0 && slot < static_cast<int>(contexts_.size()));
  util::telemetry::ScopedLane lane(static_cast<std::uint32_t>(slot) + 1);
  return engine::SolveTimePoint(*contexts_[static_cast<std::size_t>(slot)], window, t_new,
                                options_.sim.method, restart, options_.sim, seed_x);
}

engine::StepSolveResult PipelineDriver::SolveRound(const LeadSolve& lead,
                                                   std::span<HelperTask> backward,
                                                   std::span<HelperTask> chain) {
  const std::size_t shares = 1 + backward.size() + chain.size();
  engine::StepSolveResult lead_result;
  auto solve = [&](std::size_t share) {
    if (share == 0) {
      // ForkJoin evaluates the pool's task fault only when it forks; a solve
      // of a run with a pool evaluates it even when the lead runs alone.
      if (shares == 1 && pool_ && WP_FAULT_POINT("pool.task_throw")) {
        throw util::fault::FaultInjectedError("pool.task_throw");
      }
      lead_result = SolveOn(0, lead.window, lead.t_new, lead.restart, lead.seed_x);
      return;
    }
    HelperTask& task = share <= backward.size() ? backward[share - 1]
                                                : chain[share - 1 - backward.size()];
    task.result = SolveOn(task.slot, task.window, task.time, /*restart=*/false, {});
  };
  round_errors_.assign(shares, nullptr);
  util::ThreadPool::ForkJoin(pool_.get(), shares, solve, round_errors_);

  DrainError(round_errors_[0], lead_result);
  for (std::size_t k = 0; k < backward.size(); ++k) {
    DrainError(round_errors_[1 + k], backward[k].result);
  }
  for (std::size_t k = 0; k < chain.size(); ++k) {
    DrainError(round_errors_[1 + backward.size() + k], chain[k].result);
  }
  return lead_result;
}

std::vector<int> PipelineDriver::DepsOf(const engine::HistoryWindow& window) const {
  std::vector<int> deps;
  deps.reserve(window.size());
  for (const auto& point : window) {
    const auto it = ledger_id_of_point_.find(point.get());
    if (it != ledger_id_of_point_.end()) deps.push_back(it->second);
  }
  return deps;
}

bool PipelineDriver::RepairWorthwhile() const {
  // Warm-up: gather a few repair samples before judging.
  if (repair_samples_ < 8) return true;
  return avg_repair_iters_ + 0.5 < avg_lead_iters_;
}

void PipelineDriver::CountSchemeSpeculation(bool accepted) {
  if (options_.scheme == Scheme::kForward) {
    result_.sched.fwp_speculative_solves += 1;
    if (accepted) result_.sched.fwp_speculative_accepted += 1;
  } else if (options_.scheme == Scheme::kCombined) {
    result_.sched.combined_speculative_solves += 1;
    if (accepted) result_.sched.combined_speculative_accepted += 1;
  }
}

void PipelineDriver::CountSchemeBackward() {
  if (options_.scheme == Scheme::kBackward) {
    result_.sched.bwp_backward_solves += 1;
  } else if (options_.scheme == Scheme::kCombined) {
    result_.sched.combined_backward_solves += 1;
  }
}

int PipelineDriver::Record(SolveKind kind, const engine::StepSolveResult& solve,
                           std::vector<int> deps, bool useful) {
  constexpr double kEma = 0.05;
  if (kind == SolveKind::kLeading) {
    avg_lead_iters_ = avg_lead_iters_ == 0.0
                          ? solve.newton.iterations
                          : (1 - kEma) * avg_lead_iters_ + kEma * solve.newton.iterations;
    policy_.OnLeadCost(solve.newton.iterations);
  } else if (kind == SolveKind::kRepair) {
    avg_repair_iters_ =
        avg_repair_iters_ == 0.0
            ? solve.newton.iterations
            : (1 - kEma) * avg_repair_iters_ + kEma * solve.newton.iterations;
    ++repair_samples_;
    policy_.OnRepairCost(solve.newton.iterations);
  }
  SolveRecord record;
  record.kind = kind;
  record.time_point = solve.point ? solve.point->time : 0.0;
  record.seconds = solve.solve_seconds;
  record.newton_iterations = solve.newton.iterations;
  record.deps = std::move(deps);
  record.useful = useful;

  result_.stats.AbsorbNewton(solve.newton);
  process_newton_ += static_cast<std::uint64_t>(solve.newton.iterations);
  return result_.ledger.Add(std::move(record));
}

void PipelineDriver::AcceptPoint(const engine::SolutionPointPtr& point, int ledger_id,
                                 bool leading) {
  history_.Add(point);
  ledger_id_of_point_[point.get()] = ledger_id;
  // Prune map entries for points that fell out of the bounded history.
  if (ledger_id_of_point_.size() > 4 * static_cast<std::size_t>(options_.sim.history_depth)) {
    std::map<const engine::SolutionPoint*, int> kept;
    for (int i = 0; i < history_.size(); ++i) {
      const auto* raw = history_.FromNewest(i).get();
      const auto it = ledger_id_of_point_.find(raw);
      if (it != ledger_id_of_point_.end()) kept.emplace(raw, it->second);
    }
    ledger_id_of_point_ = std::move(kept);
  }
  if (leading) {
    result_.trace.Record(point->time, point->x, point->q);
    result_.stats.steps_accepted += 1;
    ++process_steps_;
    result_.final_point = point;

    // Bypass step-floor safety valve (same rule as the serial engine): a
    // sustained run of leading accepts pinned at hmin with replay active
    // means the replay wobble exceeded the deck's LTE budget — shut the
    // bypass off on every context and let the step size recover.
    if (contexts_[0]->bypass.active()) {
      if (point->time - last_leading_time_ <=
          limits_.hmin * engine::DeviceBypass::kFloorWindow) {
        if (++floor_streak_ >= engine::DeviceBypass::kFloorStreakLimit) {
          for (auto& ctx : contexts_) ctx->bypass.Disable();
          result_.stats.bypass_auto_disables += 1;
        }
      } else {
        floor_streak_ = 0;
      }
    }
    last_leading_time_ = point->time;
  }
}

void PipelineDriver::MaybeQuarantine() {
  if (options_.scheme == Scheme::kSerial) return;
  if (consecutive_failures_ < options_.quarantine_threshold) return;
  if (quarantine_rounds_left_ == 0) result_.sched.quarantine_activations += 1;
  quarantine_rounds_left_ = options_.quarantine_rounds;
  consecutive_failures_ = 0;
}

void PipelineDriver::OnNewtonFailure(double attempted_h,
                                     const engine::StepSolveResult& solve,
                                     std::vector<int> deps) {
  result_.stats.steps_rejected_newton += 1;
  Record(SolveKind::kRejected, solve, std::move(deps), /*useful=*/false);
  if (breakers_.enabled()) {
    ApplyBreakerTrips(breakers_.OnSolveOutcome(ActiveFeatureMask(),
                                               /*converged=*/false,
                                               solve.solve_seconds));
  }
  ++consecutive_failures_;
  MaybeQuarantine();
  h_ = attempted_h / options_.sim.newton_fail_shrink;
  if (h_ >= limits_.hmin) return;

  // Step shrinking is out of road — the historical hard-throw point.  Climb
  // the rescue ladder for one minimal step on the leading context before
  // declaring the run dead, and even then return a structured abort that
  // keeps the partial trace/ledger instead of unwinding through the rounds.
  const double t_now = history_.newest_time();
  const double t_rescue = std::min(t_now + limits_.hmin, spec_.tstop);
  const engine::HistoryWindow window = history_.Window(4);
  engine::RescueOutcome rescue =
      engine::AttemptRescue(*contexts_[0], window, t_rescue, options_.sim, result_.stats);
  if (rescue.rescued) {
    const int id =
        Record(SolveKind::kLeading, rescue.solve, DepsOf(window), /*useful=*/true);
    AcceptPoint(rescue.solve.point, id, /*leading=*/true);
    // The rescued point is a BE restart: rebuild the local history from it
    // exactly as after a breakpoint, at the fresh-start step size.
    restart_ = true;
    steps_since_restart_ = 0;
    h_ = limits_.h0;
    last_growth_factor_ = 1.0;
    return;
  }
  aborted_ = true;
  abort_reason_ = "wavepipe: Newton failure with step at hmin, t = " +
                  std::to_string(t_now) +
                  (solve.failure.empty() ? "" : " (" + solve.failure + ")") +
                  "; rescue ladder exhausted: " + rescue.attempts;
}

void PipelineDriver::OnLteRejection(const engine::StepAssessment& assess,
                                    double attempted_h) {
  (void)attempted_h;
  result_.stats.steps_rejected_lte += 1;
  policy_.OnLteRejection();
  h_ = std::max(assess.h_next, limits_.hmin);
  bwp_cooldown_ = 1;
}

void PipelineDriver::OnLeadingAccepted(const engine::StepAssessment& assess,
                                       bool hit_breakpoint, double growth_cap,
                                       double h_used, bool update_step_control) {
  (void)growth_cap;
  if (bwp_cooldown_ > 0) --bwp_cooldown_;
  policy_.OnLeadingAccepted();
  if (breakers_.enabled()) {
    // A converged leading solve clears every participating feature's
    // consecutive-failure count (never trips).
    (void)breakers_.OnSolveOutcome(ActiveFeatureMask(), /*converged=*/true, 0.0);
  }
  consecutive_failures_ = 0;  // a clean leading accept ends the failure streak
  ++steps_since_restart_;
  restart_ = false;
  if (hit_breakpoint) {
    ++next_breakpoint_;
    restart_ = true;
    steps_since_restart_ = 0;
    h_ = limits_.h0;
    last_growth_factor_ = 1.0;
    return;
  }
  if (!update_step_control) return;
  if (h_used > 0.0) {
    last_growth_factor_ = std::clamp(assess.h_next / h_used, 0.5, 4.0);
  }
  h_ = std::clamp(assess.h_next, limits_.hmin, limits_.hmax);
}

engine::StepControlParams PipelineDriver::ParamsWithCap(int order, double cap) const {
  engine::StepControlParams params =
      engine::MakeStepParams(options_.sim, circuit_.num_nodes(), order);
  params.growth_cap = cap;
  return params;
}

int PipelineDriver::BackwardPointCount() const {
  if (restart_ || steps_since_restart_ < 1 || history_.size() < 2) return 0;
  // The trailing interval is already densified (a rejected round keeps its
  // backward points in history); piling more points into it adds cost and
  // numerical noise, never information.
  if (history_.FromNewest(1)->auxiliary) return 0;
  // After an LTE rejection the local error estimate just proved optimistic;
  // run one round at the serial cap before trusting the raised one again.
  if (bwp_cooldown_ > 0) return 0;
  int helpers = 0;
  switch (options_.scheme) {
    case Scheme::kBackward: helpers = options_.threads - 1; break;
    case Scheme::kCombined: helpers = 1; break;
    default: return 0;
  }
  return std::clamp(helpers, 0, static_cast<int>(options_.bwp_growth_caps.size()));
}

double PipelineDriver::BwpGrowthCap(int backward_points) const {
  if (backward_points <= 0) return options_.sim.step_growth;
  const std::size_t index =
      std::min(static_cast<std::size_t>(backward_points) - 1,
               options_.bwp_growth_caps.size() - 1);
  return options_.bwp_growth_caps[index];
}

// ---------------------------------------------------------------------------
// Durable-run machinery (engine/resilience.hpp)
// ---------------------------------------------------------------------------

namespace {
/// PipelineSchedStats fields packed ahead of the SpeculationPolicy state in
/// TransientCheckpoint::sched_u64 (fixed order — part of the ckpt format).
constexpr std::size_t kSchedU64Fields = 17;
}  // namespace

void PipelineDriver::PackSched(std::vector<std::uint64_t>& u64,
                               std::vector<double>& f64) const {
  const PipelineSchedStats& s = result_.sched;
  u64.clear();
  f64.clear();
  u64.reserve(kSchedU64Fields + SpeculationPolicy::kStateU64);
  u64.push_back(static_cast<std::uint64_t>(s.rounds));
  u64.push_back(static_cast<std::uint64_t>(s.backward_solves));
  u64.push_back(static_cast<std::uint64_t>(s.speculative_solves));
  u64.push_back(static_cast<std::uint64_t>(s.speculative_accepted));
  u64.push_back(static_cast<std::uint64_t>(s.speculative_direct));
  u64.push_back(static_cast<std::uint64_t>(s.speculative_discarded));
  u64.push_back(static_cast<std::uint64_t>(s.repair_solves));
  u64.push_back(s.repair_newton_iterations);
  u64.push_back(static_cast<std::uint64_t>(s.quarantine_activations));
  u64.push_back(static_cast<std::uint64_t>(s.quarantined_rounds));
  u64.push_back(static_cast<std::uint64_t>(s.drained_task_errors));
  u64.push_back(static_cast<std::uint64_t>(s.fwp_speculative_solves));
  u64.push_back(static_cast<std::uint64_t>(s.fwp_speculative_accepted));
  u64.push_back(static_cast<std::uint64_t>(s.combined_speculative_solves));
  u64.push_back(static_cast<std::uint64_t>(s.combined_speculative_accepted));
  u64.push_back(static_cast<std::uint64_t>(s.bwp_backward_solves));
  u64.push_back(static_cast<std::uint64_t>(s.combined_backward_solves));
  policy_.SaveState(u64, f64);
}

void PipelineDriver::UnpackSched(std::span<const std::uint64_t> u64,
                                 std::span<const double> f64) {
  if (u64.size() != kSchedU64Fields + SpeculationPolicy::kStateU64 ||
      f64.size() != SpeculationPolicy::kStateF64) {
    throw util::CheckpointError("pipeline checkpoint scheduler-state layout mismatch");
  }
  PipelineSchedStats& s = result_.sched;
  std::size_t i = 0;
  s.rounds = static_cast<std::size_t>(u64[i++]);
  s.backward_solves = static_cast<std::size_t>(u64[i++]);
  s.speculative_solves = static_cast<std::size_t>(u64[i++]);
  s.speculative_accepted = static_cast<std::size_t>(u64[i++]);
  s.speculative_direct = static_cast<std::size_t>(u64[i++]);
  s.speculative_discarded = static_cast<std::size_t>(u64[i++]);
  s.repair_solves = static_cast<std::size_t>(u64[i++]);
  s.repair_newton_iterations = u64[i++];
  s.quarantine_activations = static_cast<std::size_t>(u64[i++]);
  s.quarantined_rounds = static_cast<std::size_t>(u64[i++]);
  s.drained_task_errors = static_cast<std::size_t>(u64[i++]);
  s.fwp_speculative_solves = static_cast<std::size_t>(u64[i++]);
  s.fwp_speculative_accepted = static_cast<std::size_t>(u64[i++]);
  s.combined_speculative_solves = static_cast<std::size_t>(u64[i++]);
  s.combined_speculative_accepted = static_cast<std::size_t>(u64[i++]);
  s.bwp_backward_solves = static_cast<std::size_t>(u64[i++]);
  s.combined_backward_solves = static_cast<std::size_t>(u64[i++]);
  policy_.RestoreState(u64.subspan(kSchedU64Fields), f64);
}

void PipelineDriver::CloseBooks() {
  // The serial loop's split (engine/transient.cpp) over context 0, which
  // only the driver thread solves on: DC point, leading solves, repairs and
  // rescues.  What the driver spends waiting for helpers and on round
  // bookkeeping lands in control.  The assembler is shared by every
  // context, so the merge time is context 0's own, not the assembler's
  // total.
  result_.stats.wall_seconds = total_timer_.Seconds();
  const engine::SolveContext& lead = *contexts_[0];
  engine::PhaseBreakdown& phases = result_.phases;
  phases.reduction = lead.merge_seconds;
  phases.model_eval = std::max(0.0, lead.eval_seconds - phases.reduction);
  phases.lu = lead.lu_seconds;
  phases.control = std::max(0.0, result_.stats.wall_seconds - phases.model_eval -
                                     phases.reduction - phases.lu);
}

sparse::BbdStats PipelineDriver::NetBbdStats(std::size_t i) const {
  sparse::BbdStats s = contexts_[i]->bbd.stats();
  if (i < bbd_prime_base_.size()) {
    const sparse::BbdStats& base = bbd_prime_base_[i];
    s.full_factor_count -= base.full_factor_count;
    s.refactor_count -= base.refactor_count;
    s.solve_count -= base.solve_count;
    s.schur_factor_count -= base.schur_factor_count;
    s.schur_seconds -= base.schur_seconds;
  }
  return s;
}

std::vector<std::uint8_t> PipelineDriver::Snapshot() {
  engine::TransientCheckpoint ck;
  ck.engine = "pipeline";
  ck.scheme = SchemeName(options_.scheme);
  ck.partition_pieces = options_.sim.partition_pieces;
  ck.num_unknowns = static_cast<std::uint64_t>(contexts_[0]->x.size());
  ck.num_probes = result_.trace.probes().size();
  ck.tstop = spec_.tstop;

  ck.h = h_;
  ck.restart = restart_;
  ck.steps_since_restart = static_cast<std::uint64_t>(steps_since_restart_);
  ck.floor_streak = static_cast<std::uint64_t>(floor_streak_);
  ck.next_breakpoint = next_breakpoint_;

  ck.last_leading_time = last_leading_time_;
  ck.bwp_cooldown = static_cast<std::uint64_t>(bwp_cooldown_);
  ck.consecutive_failures = static_cast<std::uint64_t>(consecutive_failures_);
  ck.quarantine_rounds_left = static_cast<std::uint64_t>(quarantine_rounds_left_);
  ck.last_growth_factor = last_growth_factor_;
  ck.avg_lead_iters = avg_lead_iters_;
  ck.avg_repair_iters = avg_repair_iters_;
  ck.repair_samples = static_cast<std::uint64_t>(repair_samples_);
  PackSched(ck.sched_u64, ck.sched_f64);

  ck.ledger.reserve(result_.ledger.size());
  for (const auto& rec : result_.ledger.records()) {
    engine::CheckpointLedgerRecord r;
    r.id = rec.id;
    r.kind = static_cast<std::uint8_t>(rec.kind);
    r.time_point = rec.time_point;
    r.seconds = rec.seconds;
    r.newton_iterations = rec.newton_iterations;
    r.useful = rec.useful;
    r.deps.assign(rec.deps.begin(), rec.deps.end());
    ck.ledger.push_back(std::move(r));
  }

  for (const auto& sp : history_.Window(history_.size())) {
    engine::CheckpointPoint p;
    p.time = sp->time;
    p.x = sp->x;
    p.q = sp->q;
    p.qdot = sp->qdot;
    p.auxiliary = sp->auxiliary;
    const auto it = ledger_id_of_point_.find(sp.get());
    p.ledger_id = it != ledger_id_of_point_.end() ? it->second : -1;
    ck.history.push_back(std::move(p));
  }

  // Solver stats absorbed into the snapshot COPY so the live tallies keep
  // accumulating raw (the epilogue absorbs them exactly once).
  ck.stats = result_.stats;
  for (std::size_t i = 0; i < contexts_.size(); ++i) {
    ck.stats.AbsorbLuStats(contexts_[i]->lu.stats());
    ck.stats.AbsorbFactorCache(contexts_[i]->factor_cache);
    if (contexts_[i]->bbd.configured()) ck.stats.AbsorbPartitionStats(NetBbdStats(i));
    ck.stats.bypassed_evals += contexts_[i]->bypass.bypassed_evals();
    ck.stats.bypass_full_evals += contexts_[i]->bypass.full_evals();
  }
  ck.stats.wall_seconds = total_timer_.Seconds();

  for (const auto& ctx : contexts_) {
    engine::CheckpointContextSeeds seeds;
    seeds.lu_full = ctx->lu_seeds.full;
    seeds.lu_numeric = ctx->lu_seeds.numeric;
    seeds.bbd_full = ctx->bbd_seeds.full;
    seeds.bbd_numeric = ctx->bbd_seeds.numeric;
    ck.context_seeds.push_back(std::move(seeds));
  }

  ck.trace_times.assign(result_.trace.times().begin(), result_.trace.times().end());
  const std::size_t stride = result_.trace.probes().size();
  ck.trace_values.reserve(result_.trace.num_samples() * stride);
  for (std::size_t s = 0; s < result_.trace.num_samples(); ++s) {
    for (std::size_t p = 0; p < stride; ++p) {
      ck.trace_values.push_back(result_.trace.value(s, p));
    }
  }
  return engine::SerializeCheckpoint(ck);
}

void PipelineDriver::RestoreFromCheckpoint(const engine::TransientCheckpoint& ck) {
  engine::ValidateResume(ck, "pipeline", SchemeName(options_.scheme),
                         options_.sim.partition_pieces,
                         static_cast<std::uint64_t>(contexts_[0]->x.size()),
                         result_.trace.probes().size(), spec_.tstop);
  if (ck.context_seeds.size() != contexts_.size()) {
    throw util::CheckpointError(
        "pipeline checkpoint carries " + std::to_string(ck.context_seeds.size()) +
        " context slots, this run has " + std::to_string(contexts_.size()) +
        " (thread/policy configuration differs)");
  }
  UnpackSched(ck.sched_u64, ck.sched_f64);
  result_.resilience.ckpt_resumed = 1;
  result_.stats = ck.stats;

  for (const auto& rec : ck.ledger) {
    SolveRecord r;
    r.kind = static_cast<SolveKind>(rec.kind);
    r.time_point = rec.time_point;
    r.seconds = rec.seconds;
    r.newton_iterations = static_cast<int>(rec.newton_iterations);
    r.useful = rec.useful;
    r.deps.assign(rec.deps.begin(), rec.deps.end());
    const int id = result_.ledger.Add(std::move(r));
    if (id != static_cast<int>(rec.id)) {
      throw util::CheckpointError("pipeline checkpoint ledger ids not contiguous");
    }
  }

  for (const auto& p : ck.history) {
    auto point = std::make_shared<engine::SolutionPoint>();
    point->time = p.time;
    point->x = p.x;
    point->q = p.q;
    point->qdot = p.qdot;
    point->auxiliary = p.auxiliary;
    if (p.ledger_id >= 0) {
      ledger_id_of_point_[point.get()] = static_cast<int>(p.ledger_id);
    }
    history_.Add(std::move(point));
  }

  const std::size_t stride = result_.trace.probes().size();
  for (std::size_t s = 0; s < ck.trace_times.size(); ++s) {
    result_.trace.AppendProbeSample(
        ck.trace_times[s],
        std::span<const double>(ck.trace_values).subspan(s * stride, stride));
  }
  result_.final_point = history_.newest();
  result_.last_good_time = history_.newest_time();

  h_ = ck.h;
  restart_ = ck.restart;
  steps_since_restart_ = static_cast<int>(ck.steps_since_restart);
  floor_streak_ = static_cast<int>(ck.floor_streak);
  next_breakpoint_ = ck.next_breakpoint;
  last_leading_time_ = ck.last_leading_time;
  bwp_cooldown_ = static_cast<int>(ck.bwp_cooldown);
  consecutive_failures_ = static_cast<int>(ck.consecutive_failures);
  quarantine_rounds_left_ = static_cast<int>(ck.quarantine_rounds_left);
  last_growth_factor_ = ck.last_growth_factor;
  avg_lead_iters_ = ck.avg_lead_iters;
  avg_repair_iters_ = ck.avg_repair_iters;
  repair_samples_ = static_cast<int>(ck.repair_samples);

  // Prime every context's linear solvers from its replay seeds so the first
  // post-resume solve on each slot REFACTORS exactly like the uninterrupted
  // run (see FactorSeeds).  The factor counters this spends are bookkeeping,
  // not simulation work — keep them out of the absorbed stats.
  bbd_prime_base_.assign(contexts_.size(), sparse::BbdStats{});
  for (std::size_t i = 0; i < contexts_.size(); ++i) {
    const engine::CheckpointContextSeeds& seeds = ck.context_seeds[i];
    contexts_[i]->PrimeFactorsFromSeeds(
        engine::FactorSeeds{seeds.lu_full, seeds.lu_numeric},
        engine::FactorSeeds{seeds.bbd_full, seeds.bbd_numeric});
    if (contexts_[i]->bbd.configured()) bbd_prime_base_[i] = contexts_[i]->bbd.stats();
  }
}

std::uint64_t PipelineDriver::ActiveFeatureMask() const {
  std::uint64_t mask = 0;
  if (options_.sim.chord_newton) mask |= engine::FeatureBit(engine::Feature::kChord);
  if (contexts_[0]->bypass.active()) mask |= engine::FeatureBit(engine::Feature::kBypass);
  if (contexts_[0]->partition_active()) {
    mask |= engine::FeatureBit(engine::Feature::kPartition);
  }
  if (contexts_[0]->factor_pool != nullptr) {
    mask |= engine::FeatureBit(engine::Feature::kParallelFactor);
  }
  if (contexts_[0]->assembler != nullptr) {
    mask |= engine::FeatureBit(engine::Feature::kParallelAssembly);
  }
  return mask;
}

void PipelineDriver::ApplyBreakerTrips(std::uint64_t tripped) {
  if (tripped == 0) return;
  if (tripped & engine::FeatureBit(engine::Feature::kChord)) {
    options_.sim.chord_newton = false;
  }
  if (tripped & engine::FeatureBit(engine::Feature::kBypass)) {
    for (auto& ctx : contexts_) ctx->bypass.Disable();
  }
  if (tripped & engine::FeatureBit(engine::Feature::kPartition)) {
    for (auto& ctx : contexts_) ctx->DisengagePartition();
  }
  if (tripped & engine::FeatureBit(engine::Feature::kParallelFactor)) {
    for (auto& ctx : contexts_) ctx->factor_pool = nullptr;
  }
  if (tripped & engine::FeatureBit(engine::Feature::kParallelAssembly)) {
    for (auto& ctx : contexts_) ctx->assembler = nullptr;
  }
}

void PipelineDriver::RoundBarrier() {
  if (breakers_.enabled()) {
    // Cooldown ticks once per round (the pipeline's acceptance unit).
    const std::uint64_t reprobe = breakers_.OnAcceptedStep();
    if (reprobe & engine::FeatureBit(engine::Feature::kChord)) {
      options_.sim.chord_newton = chord_configured_;
    }
    if (reprobe & engine::FeatureBit(engine::Feature::kPartition)) {
      for (auto& ctx : contexts_) ctx->ReengagePartition();
    }
    if ((reprobe & engine::FeatureBit(engine::Feature::kParallelFactor)) &&
        intra_pool_ && options_.factor_threads > 1) {
      for (auto& ctx : contexts_) ctx->factor_pool = intra_pool_.get();
    }
    if ((reprobe & engine::FeatureBit(engine::Feature::kParallelAssembly)) && assembler_) {
      for (auto& ctx : contexts_) ctx->assembler = assembler_.get();
    }
    // No bypass re-probe: DeviceBypass::Disable is terminal, matching the
    // step-floor safety valve's one-way semantics.
  }
  sink_.MaybeWrite(process_steps_, [this] { return Snapshot(); });
  if (aborted_) return;  // the round's own abort reason wins
  if (watchdog_.ShouldAbort()) {
    ++result_.resilience.watchdog_escalations;
    aborted_ = true;
    abort_reason_ = watchdog_.AbortReason();
    return;
  }
  const std::string budget_reason =
      budget_.Exceeded(process_steps_, process_newton_, total_timer_.Seconds());
  if (!budget_reason.empty()) {
    result_.resilience.budget_exhausted = 1;
    aborted_ = true;
    abort_reason_ = budget_reason;
  }
}

WavePipeResult RunWavePipe(const engine::Circuit& circuit,
                           const engine::MnaStructure& structure,
                           const engine::TransientSpec& spec,
                           const WavePipeOptions& options) {
  PipelineDriver driver(circuit, structure, spec, options);
  return driver.Run();
}

}  // namespace wavepipe::pipeline

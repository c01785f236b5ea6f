#include "engine/transient.hpp"

#include <algorithm>
#include <cmath>

#include "engine/rescue.hpp"
#include "engine/resilience.hpp"
#include "partition/partitioner.hpp"

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace wavepipe::engine {

void TransientStats::ExportCounters(util::telemetry::CounterRegistry& registry) const {
  registry.Count("transient.steps_accepted", steps_accepted);
  registry.Count("transient.steps_rejected_lte", steps_rejected_lte);
  registry.Count("transient.steps_rejected_newton", steps_rejected_newton);
  for (int rung = 0; rung < kNumRescueRungs; ++rung) {
    const char* name = RescueRungName(static_cast<RescueRung>(rung));
    registry.Count(std::string("transient.rescues_attempted.") + name,
                   rescues_attempted[static_cast<std::size_t>(rung)]);
    registry.Count(std::string("transient.rescues_succeeded.") + name,
                   rescues_succeeded[static_cast<std::size_t>(rung)]);
  }
  registry.Count("transient.newton_iterations", newton_iterations);
  registry.Count("transient.bypassed_evals", bypassed_evals);
  registry.Count("transient.bypass_full_evals", bypass_full_evals);
  registry.Count("transient.chord_solves", chord_solves);
  registry.Count("transient.forced_refactors", forced_refactors);
  registry.Count("transient.bypass_auto_disables", bypass_auto_disables);
  registry.Value("transient.wall_seconds", wall_seconds);
  registry.Count("lu.full_factors", lu_full_factors);
  registry.Count("lu.refactors", lu_refactors);
  registry.Count("lu.factor_levels", static_cast<std::uint64_t>(factor_levels));
  registry.Count("lu.factor_widest_level", factor_widest_level);
  registry.Value("lu.modeled_refactor_speedup2", modeled_refactor_speedup2);
  registry.Value("lu.modeled_refactor_speedup4", modeled_refactor_speedup4);
  registry.Count("lu.parallel_refactors", lu_parallel_refactors);
  registry.Count("lu.refactor_fallbacks", lu_refactor_fallbacks);
  registry.Count("lu.parallel_solves", lu_parallel_solves);
  registry.Count("partition.pieces", static_cast<std::uint64_t>(partition_pieces));
  registry.Count("partition.interface_size", partition_interface_size);
  registry.Value("partition.piece_imbalance", partition_piece_imbalance);
  registry.Count("partition.full_factors", partition_full_factors);
  registry.Count("partition.refactors", partition_refactors);
  registry.Count("partition.solves", partition_solves);
  registry.Count("partition.schur_factors", partition_schur_factors);
  registry.Count("partition.schur_nnz", partition_schur_nnz);
  registry.Value("partition.schur_seconds", partition_schur_seconds);
}

void PhaseBreakdown::ExportCounters(util::telemetry::CounterRegistry& registry) const {
  registry.Value("phases.model_eval_seconds", model_eval);
  registry.Value("phases.reduction_seconds", reduction);
  registry.Value("phases.lu_seconds", lu);
  registry.Value("phases.control_seconds", control);
  registry.Value("phases.total_seconds", Total());
}

StepControlParams MakeStepParams(const SimOptions& options, int num_nodes, int order) {
  StepControlParams params;
  params.reltol = options.reltol;
  params.vntol = options.vntol;
  params.abstol = options.abstol;
  params.trtol = options.trtol;
  params.safety = options.step_safety;
  params.growth_cap = options.step_growth;
  params.min_shrink = options.min_shrink;
  params.reject_shrink = options.reject_shrink;
  params.order = order;
  params.num_nodes = num_nodes;
  params.norm_unknowns = num_nodes;  // LTE on node voltages; see field docs
  return params;
}

StepLimits StepLimits::FromSpec(const TransientSpec& spec, const SimOptions& options) {
  const double span = spec.tstop - spec.tstart;
  WP_ASSERT(span > 0.0);
  StepLimits limits;
  // tstep is the user's print-interval hint, NOT a step cap (SPICE3 uses
  // span/50 as the default maximum step; TMAX/.options maxstep overrides).
  limits.hmax = options.hmax > 0.0 ? options.hmax : span / 50.0;
  limits.hmin = options.hmin_ratio * span;
  limits.h0 = std::max(options.first_step_ratio * limits.hmax, limits.hmin);
  if (spec.tstep > 0.0) limits.h0 = std::min(limits.h0, spec.tstep);
  return limits;
}

StepClip ClipStepToSchedule(double t_from, double h, double tstop,
                            std::span<const double> breakpoints,
                            std::size_t& next_breakpoint, double hmin) {
  StepClip clip{t_from + h, false, false};
  while (next_breakpoint < breakpoints.size() &&
         breakpoints[next_breakpoint] <= t_from + hmin) {
    ++next_breakpoint;  // already passed (or unreachably close)
  }
  if (next_breakpoint < breakpoints.size() &&
      clip.t_new >= breakpoints[next_breakpoint] - hmin) {
    clip.t_new = breakpoints[next_breakpoint];
    clip.hit_breakpoint = true;
  }
  if (clip.t_new >= tstop) {
    clip.t_new = tstop;
    clip.hit_stop = true;
    clip.hit_breakpoint = false;
  }
  return clip;
}

bool TransientHorizonReached(double newest_time, double tstop) {
  return newest_time >= tstop - 1e-15 * std::abs(tstop);
}

StepSolveResult SolveTimePoint(SolveContext& ctx, const HistoryWindow& window, double t_new,
                               Method method, bool restart, const SimOptions& options,
                               std::span<const double> seed_x,
                               const SolveOverrides& overrides) {
  WP_ASSERT(!window.empty());
  WP_ASSERT(t_new > window.back()->time);
  WP_TSPAN("solve", "time_point");
  util::ThreadCpuTimer timer;

  StepSolveResult result;
  const Method effective = restart ? Method::kBackwardEuler : method;
  result.plan = PlanIntegration(effective, t_new, window, ctx.state_hist);

  // Predictor: constant on restarts (no trustworthy local polynomial),
  // otherwise one more point than the method order.
  const int predictor_points = restart ? 1 : result.plan.order + 1;
  result.predicted.resize(ctx.x.size());
  PredictSolution(window, predictor_points, t_new, result.predicted);
  if (seed_x.empty()) {
    ctx.x = result.predicted;
  } else {
    WP_ASSERT(seed_x.size() == ctx.x.size());
    std::copy(seed_x.begin(), seed_x.end(), ctx.x.begin());
  }

  NewtonInputs inputs;
  inputs.time = t_new;
  inputs.a0 = result.plan.a0;
  inputs.transient = true;
  inputs.gmin = options.gmin;
  inputs.source_scale = 1.0;
  inputs.trusted_seed = !seed_x.empty();
  inputs.gshunt = overrides.gshunt;
  inputs.damping = overrides.damping;
  result.newton = SolveNewton(ctx, inputs, options,
                              options.max_newton_iters * std::max(1, overrides.max_iters_scale));
  result.converged = result.newton.converged;
  if (result.newton.singular) result.failure = "singular pivot";

  if (result.converged) {
    auto point = std::make_shared<SolutionPoint>();
    point->time = t_new;
    point->x = ctx.x;
    point->q = ctx.state_now;
    point->qdot.resize(ctx.state_now.size());
    ComputeQdot(result.plan, point->q, ctx.state_hist, point->qdot);
    result.point = std::move(point);
  }
  result.solve_seconds = timer.Seconds();
  return result;
}

IntegrationPlan RefreshPointStates(SolveContext& ctx, const HistoryWindow& window,
                                   Method method,
                                   const std::shared_ptr<SolutionPoint>& point,
                                   const SimOptions& options) {
  WP_ASSERT(point != nullptr);
  const IntegrationPlan plan = PlanIntegration(method, point->time, window, ctx.state_hist);
  ctx.x = point->x;
  NewtonInputs inputs;
  inputs.time = point->time;
  inputs.a0 = plan.a0;
  inputs.transient = true;
  inputs.gmin = options.gmin;
  inputs.source_scale = 1.0;
  EvalDevices(ctx, inputs, /*limit_valid=*/false, /*first_iteration=*/true);
  point->q = ctx.state_now;
  point->qdot.resize(ctx.state_now.size());
  ComputeQdot(plan, point->q, ctx.state_hist, point->qdot);
  return plan;
}

TransientResult RunTransientSerial(const Circuit& circuit, const MnaStructure& structure,
                                   const TransientSpec& spec, const SimOptions& options,
                                   const IntraSolve& intra) {
  WP_ASSERT(spec.tstop > spec.tstart);
  // The fine-grained configuration keeps its own checkpoint tag: a
  // checkpoint resumes only into the configuration that wrote it.
  const char* engine_tag = intra.engaged() ? "fine-grained" : "serial";
  util::telemetry::ScopedLane lane(0, intra.engaged() ? "fine-grained" : "serial-engine");
  util::WallTimer total_timer;

  TransientResult result;
  result.trace = Trace(spec.probes.size() > 0
                           ? spec.probes
                           : ProbeSet::FirstNodes(circuit.num_nodes(), 16));

  // Durable-run machinery (engine/resilience.hpp).  With the default
  // ResilienceOptions everything below is inert: no files, no extra thread,
  // no behavior change.  `live` is the options block the breakers are
  // allowed to degrade mid-run; it starts as an exact copy.
  const ResilienceOptions& res = options.resilience;
  SimOptions live = options;
  ResilienceStats& rstats = result.resilience;
  CheckpointSink sink(res, rstats);
  const RunBudget run_budget(res);
  StallWatchdog watchdog(res, rstats);
  BreakerBoard breakers(res, rstats);

  SolveContext ctx(circuit, structure);
  // Runs that are tasks of one pool (batch variants) split one run budget,
  // as pipeline slots do; a run on its own gets all of it.
  ctx.factor_cache.Configure(
      FactorCache::ShareOfRun(std::max(1u, util::ThreadPool::CurrentPoolSize())));
  ctx.assembler = intra.assembler;
  ctx.factor_pool = intra.factor_pool;
  ctx.ConfigureAcceleration(options);
  if (options.ordering_cache != nullptr) ctx.lu.set_ordering_cache(options.ordering_cache);
  if (options.partition_pieces > 0) {
    ctx.ConfigurePartition(
        options.partition_plan != nullptr
            ? options.partition_plan
            : partition::PartitionPattern(structure.pattern(), options.partition_pieces),
        options.ordering_cache);
  }
  watchdog.AddSource(&ctx.heartbeat);
  if (intra.pool != nullptr) {
    watchdog.AddSource(&intra.pool->tasks_started_heartbeat());
    watchdog.AddSource(&intra.pool->tasks_completed_heartbeat());
  }
  watchdog.Start();
  ctx.record_factor_seeds = sink.enabled();
  result.last_good_time = spec.tstart;

  // Closes the books on every exit: wall clock and its layer split.  The
  // merge runs inside the eval clock, so it moves from model_eval to
  // reduction.
  const auto finish = [&] {
    result.stats.wall_seconds = total_timer.Seconds();
    if (intra.assembler != nullptr) result.assembly = intra.assembler->stats();
    PhaseBreakdown& phases = result.phases;
    phases.reduction = ctx.merge_seconds;
    phases.model_eval = std::max(0.0, ctx.eval_seconds - phases.reduction);
    phases.lu = ctx.lu_seconds;
    phases.control = std::max(
        0.0, result.stats.wall_seconds - phases.model_eval - phases.reduction - phases.lu);
  };

  // Factor counters spent PRIMING the linear solvers at resume (replaying
  // the checkpointed seeds) are bookkeeping, not simulation work — this
  // baseline keeps them out of the absorbed partition stats so resumed and
  // uninterrupted runs agree on every activity counter.
  sparse::BbdStats bbd_prime_base{};
  const auto net_bbd_stats = [&]() {
    sparse::BbdStats s = ctx.bbd.stats();
    s.full_factor_count -= bbd_prime_base.full_factor_count;
    s.refactor_count -= bbd_prime_base.refactor_count;
    s.solve_count -= bbd_prime_base.solve_count;
    s.schur_factor_count -= bbd_prime_base.schur_factor_count;
    s.schur_seconds -= bbd_prime_base.schur_seconds;
    return s;
  };

  const StepLimits limits = StepLimits::FromSpec(spec, options);
  std::vector<double> breakpoints = circuit.CollectBreakpoints(spec.tstart, spec.tstop);
  std::size_t next_bp = 0;
  History history(options.history_depth);

  double h = limits.h0;
  bool restart = true;  // first step integrates off the DC point
  int steps_since_restart = 0;
  int floor_streak = 0;  // accepted-at-hmin run length (bypass safety valve)
  std::uint64_t process_steps = 0;   // accepted steps THIS process (budget basis)
  std::uint64_t process_newton = 0;  // Newton iterations THIS process

  if (res.resume != nullptr) {
    // Restore the accepted-step boundary the checkpoint captured; the DC
    // operating point is already inside the history, so the loop continues
    // exactly where the checkpointed process would have.
    const TransientCheckpoint& ck = *res.resume;
    ValidateResume(ck, engine_tag, "", options.partition_pieces,
                   static_cast<std::uint64_t>(ctx.x.size()),
                   result.trace.probes().size(), spec.tstop);
    rstats.ckpt_resumed = 1;
    result.stats = ck.stats;
    result.steps = ck.steps;
    for (const auto& p : ck.history) {
      auto point = std::make_shared<SolutionPoint>();
      point->time = p.time;
      point->x = p.x;
      point->q = p.q;
      point->qdot = p.qdot;
      point->auxiliary = p.auxiliary;
      history.Add(std::move(point));
    }
    for (std::size_t s = 0; s < ck.trace_times.size(); ++s) {
      const std::size_t stride = result.trace.probes().size();
      result.trace.AppendProbeSample(
          ck.trace_times[s],
          std::span<const double>(ck.trace_values).subspan(s * stride, stride));
    }
    result.final_point = history.newest();
    h = ck.h;
    restart = ck.restart;
    steps_since_restart = static_cast<int>(ck.steps_since_restart);
    floor_streak = static_cast<int>(ck.floor_streak);
    next_bp = ck.next_breakpoint;
    ctx.PrimeFactorsFromSeeds(FactorSeeds{ck.lu_seed_full, ck.lu_seed_numeric},
                              FactorSeeds{ck.bbd_seed_full, ck.bbd_seed_numeric});
    if (ctx.bbd.configured()) bbd_prime_base = ctx.bbd.stats();
  } else {
    try {
      const DcopResult dcop = SolveDcOperatingPoint(ctx, options, spec.initial_conditions);
      result.stats.dcop_strategy = dcop.strategy;
    } catch (const Error& error) {
      // No operating point, no waveform to lose — but still a structured
      // result instead of an unwound stack.
      watchdog.Finish();
      result.completed = false;
      result.abort_reason = error.what();
      finish();
      return result;
    }
    history.Add(MakeDcSolutionPoint(ctx, spec.tstart));
    result.trace.Record(spec.tstart, history.newest()->x, history.newest()->q);
  }

  result.trace.ReserveEstimate(spec.tstop - spec.tstart, limits.hmin);
  if (spec.record_step_details) {
    result.steps.reserve(result.trace.reserved_samples());
  }

  // Serializes the CURRENT accepted-step boundary.  Solver stats absorbed
  // into the snapshot COPY so the running tallies keep accumulating raw.
  const auto snapshot = [&]() -> std::vector<std::uint8_t> {
    TransientCheckpoint ck;
    ck.engine = engine_tag;
    ck.partition_pieces = options.partition_pieces;
    ck.num_unknowns = static_cast<std::uint64_t>(ctx.x.size());
    ck.num_probes = result.trace.probes().size();
    ck.tstop = spec.tstop;
    ck.h = h;
    ck.restart = restart;
    ck.steps_since_restart = static_cast<std::uint64_t>(steps_since_restart);
    ck.floor_streak = static_cast<std::uint64_t>(floor_streak);
    ck.next_breakpoint = next_bp;
    for (const auto& sp : history.Window(history.size())) {
      CheckpointPoint p;
      p.time = sp->time;
      p.x = sp->x;
      p.q = sp->q;
      p.qdot = sp->qdot;
      p.auxiliary = sp->auxiliary;
      ck.history.push_back(std::move(p));
    }
    ck.stats = result.stats;
    ck.stats.AbsorbLuStats(ctx.lu.stats());
    ck.stats.AbsorbFactorCache(ctx.factor_cache);
    if (ctx.bbd.configured()) ck.stats.AbsorbPartitionStats(net_bbd_stats());
    ck.stats.bypassed_evals += ctx.bypass.bypassed_evals();
    ck.stats.bypass_full_evals += ctx.bypass.full_evals();
    ck.stats.wall_seconds = total_timer.Seconds();
    ck.lu_seed_full = ctx.lu_seeds.full;
    ck.lu_seed_numeric = ctx.lu_seeds.numeric;
    ck.bbd_seed_full = ctx.bbd_seeds.full;
    ck.bbd_seed_numeric = ctx.bbd_seeds.numeric;
    ck.steps = result.steps;
    ck.trace_times.assign(result.trace.times().begin(), result.trace.times().end());
    const std::size_t stride = result.trace.probes().size();
    ck.trace_values.reserve(result.trace.num_samples() * stride);
    for (std::size_t s = 0; s < result.trace.num_samples(); ++s) {
      for (std::size_t p = 0; p < stride; ++p) {
        ck.trace_values.push_back(result.trace.value(s, p));
      }
    }
    return SerializeCheckpoint(ck);
  };

  // Accepted-step boundary hook: breaker cooldowns, checkpoint cadence, the
  // budget governor, and watchdog escalation.  True = stop the run now.
  const auto accepted_boundary = [&]() -> bool {
    ++process_steps;
    if (breakers.enabled()) {
      const std::uint64_t reprobe = breakers.OnAcceptedStep();
      if (reprobe & FeatureBit(Feature::kChord)) live.chord_newton = options.chord_newton;
      if (reprobe & FeatureBit(Feature::kPartition)) ctx.ReengagePartition();
      if (reprobe & FeatureBit(Feature::kParallelFactor)) ctx.factor_pool = intra.factor_pool;
      if (reprobe & FeatureBit(Feature::kParallelAssembly)) ctx.assembler = intra.assembler;
      // No bypass re-probe: DeviceBypass::Disable is terminal, matching the
      // step-floor safety valve's one-way semantics.
    }
    sink.MaybeWrite(process_steps, snapshot);
    if (watchdog.ShouldAbort()) {
      ++rstats.watchdog_escalations;
      result.completed = false;
      result.abort_reason = watchdog.AbortReason();
      return true;
    }
    const std::string budget_reason =
        run_budget.Exceeded(process_steps, process_newton, total_timer.Seconds());
    if (!budget_reason.empty()) {
      rstats.budget_exhausted = 1;
      result.completed = false;
      result.abort_reason = budget_reason;
      return true;
    }
    return false;
  };

  while (!TransientHorizonReached(history.newest_time(), spec.tstop)) {
    const double t_now = history.newest_time();

    // Clip the step to the next breakpoint / stop time (shared rule with the
    // pipeline driver — the two step sequences must stay identical).
    h = std::clamp(h, limits.hmin, limits.hmax);
    const StepClip clip =
        ClipStepToSchedule(t_now, h, spec.tstop, breakpoints, next_bp, limits.hmin);
    const double t_new = clip.t_new;
    const bool hit_breakpoint = clip.hit_breakpoint;

    const HistoryWindow window = history.Window(4);
    StepSolveResult solve;
    try {
      solve = SolveTimePoint(ctx, window, t_new, live.method, restart, live);
    } catch (const Error& error) {
      // Recoverable engine errors (injected or genuine) demote to a failed
      // solve: the shrink/rescue machinery below owns what happens next.
      solve.converged = false;
      solve.failure = error.what();
    }
    if (breakers.enabled()) {
      std::uint64_t mask = 0;
      if (live.chord_newton) mask |= FeatureBit(Feature::kChord);
      if (ctx.bypass.active()) mask |= FeatureBit(Feature::kBypass);
      if (ctx.partition_active()) mask |= FeatureBit(Feature::kPartition);
      if (ctx.factor_pool != nullptr) mask |= FeatureBit(Feature::kParallelFactor);
      if (ctx.assembler != nullptr) mask |= FeatureBit(Feature::kParallelAssembly);
      const std::uint64_t tripped =
          breakers.OnSolveOutcome(mask, solve.converged, solve.solve_seconds);
      if (tripped & FeatureBit(Feature::kChord)) live.chord_newton = false;
      if (tripped & FeatureBit(Feature::kBypass)) ctx.bypass.Disable();
      if (tripped & FeatureBit(Feature::kPartition)) ctx.DisengagePartition();
      if (tripped & FeatureBit(Feature::kParallelFactor)) ctx.factor_pool = nullptr;
      if (tripped & FeatureBit(Feature::kParallelAssembly)) ctx.assembler = nullptr;
    }
    process_newton += static_cast<std::uint64_t>(solve.newton.iterations);
    result.stats.AbsorbNewton(solve.newton);

    if (!solve.converged) {
      WP_TINSTANT("lte", "newton_reject");
      result.stats.steps_rejected_newton += 1;
      if (spec.record_step_details) {
        result.steps.push_back({t_new, t_new - t_now, solve.newton.iterations, 0.0,
                                /*accepted=*/false, restart});
      }
      h = (t_new - t_now) / options.newton_fail_shrink;
      if (h < limits.hmin) {
        // Step shrinking is out of road: climb the rescue ladder for one
        // minimal step before giving up.
        const double t_rescue = std::min(t_now + limits.hmin, spec.tstop);
        RescueOutcome rescue =
            AttemptRescue(ctx, window, t_rescue, live, result.stats);
        if (rescue.rescued) {
          history.Add(rescue.solve.point);
          result.trace.Record(t_rescue, rescue.solve.point->x, rescue.solve.point->q);
          result.stats.steps_accepted += 1;
          result.final_point = rescue.solve.point;
          if (spec.record_step_details) {
            result.steps.push_back({t_rescue, t_rescue - t_now,
                                    rescue.solve.newton.iterations, 0.0,
                                    /*accepted=*/true, /*restart_step=*/true});
          }
          // The rescued point is a BE restart; rebuild the local history
          // from it exactly as after a breakpoint.
          restart = true;
          steps_since_restart = 0;
          h = limits.h0;
          // Rescued points advance by hmin by construction — they feed the
          // bypass step-floor valve just like force-accepted hmin steps.
          if (ctx.bypass.active() &&
              ++floor_streak >= DeviceBypass::kFloorStreakLimit) {
            ctx.bypass.Disable();
            result.stats.bypass_auto_disables += 1;
          }
          if (accepted_boundary()) break;
          continue;
        }
        result.completed = false;
        result.abort_reason =
            "transient: Newton failure with step at hmin, t = " +
            std::to_string(t_now) +
            (solve.failure.empty() ? "" : " (" + solve.failure + ")") +
            "; rescue ladder exhausted: " + rescue.attempts;
        break;
      }
      continue;
    }

    // LTE acceptance test.  Skipped while the local polynomial model is not
    // yet trustworthy (restart step and the one following it).
    const bool lte_active = !restart && steps_since_restart >= 1 && window.size() >= 2;
    const StepControlParams params =
        MakeStepParams(live, circuit.num_nodes(), solve.plan.order);
    const StepAssessment assess = [&] {
      WP_TSPAN("lte", "assess_step");
      return AssessStep(solve.point->x, solve.predicted, t_new - t_now, lte_active,
                        params);
    }();
    if (spec.record_step_details) {
      result.steps.push_back({t_new, t_new - t_now, solve.newton.iterations, assess.error,
                              assess.accept, restart});
    }

    // The 1e-6 slack makes the force-accept-at-hmin comparison robust to the
    // rounding of (t_now + hmin) - t_now.
    if (!assess.accept && (t_new - t_now) > limits.hmin * (1.0 + 1e-6)) {
      WP_TINSTANT("lte", "lte_reject");
      result.stats.steps_rejected_lte += 1;
      h = std::max(assess.h_next, limits.hmin);
      continue;
    }

    // Accept.
    history.Add(solve.point);
    result.trace.Record(t_new, solve.point->x, solve.point->q);
    result.stats.steps_accepted += 1;
    result.final_point = solve.point;
    ++steps_since_restart;
    restart = false;

    // Bypass step-floor safety valve: a deck whose LTE budget sits below the
    // replay wobble pins every accepted step at hmin and the run crawls.  A
    // sustained floor streak with replay active trades the bypass for the
    // step economy (see DeviceBypass::Disable).
    if (ctx.bypass.active()) {
      if (t_new - t_now <= limits.hmin * DeviceBypass::kFloorWindow) {
        if (++floor_streak >= DeviceBypass::kFloorStreakLimit) {
          ctx.bypass.Disable();
          result.stats.bypass_auto_disables += 1;
        }
      } else {
        floor_streak = 0;
      }
    }

    if (hit_breakpoint) {
      ++next_bp;
      restart = true;
      steps_since_restart = 0;
      h = limits.h0;
    } else {
      h = std::max(assess.h_next, limits.hmin);
    }

    if (accepted_boundary()) break;
  }

  watchdog.Finish();
  // One final snapshot on EVERY exit (completion, budget, watchdog, rescue
  // exhaustion): the newest accepted state is always resumable.
  sink.WriteFinal(snapshot);
  result.last_good_time = history.newest_time();
  result.stats.AbsorbLuStats(ctx.lu.stats());
  result.stats.AbsorbFactorCache(ctx.factor_cache);
  if (ctx.bbd.configured()) result.stats.AbsorbPartitionStats(net_bbd_stats());
  result.stats.bypassed_evals += ctx.bypass.bypassed_evals();
  result.stats.bypass_full_evals += ctx.bypass.full_evals();
  finish();
  return result;
}

}  // namespace wavepipe::engine

#include "engine/transient.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/telemetry.hpp"
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

}  // namespace wavepipe::engine

#include "engine/dcop.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"

namespace wavepipe::engine {
namespace {

NewtonInputs DcInputs(const SimOptions& options) {
  NewtonInputs inputs;
  inputs.time = 0.0;
  inputs.a0 = 0.0;
  inputs.transient = false;
  inputs.gmin = options.gmin;
  inputs.gshunt = 0.0;
  inputs.source_scale = 1.0;
  return inputs;
}

}  // namespace

DcopResult SolveDcOperatingPoint(SolveContext& ctx, const SimOptions& options,
                                 std::span<const std::pair<int, double>> nodesets) {
  WP_TSPAN("solve", "dc_operating_point");
  std::fill(ctx.state_hist.begin(), ctx.state_hist.end(), 0.0);

  // Nodeset pass: force the requested node voltages through a 1-ohm clamp,
  // solve, then fall through to the regular ladder (clamp released) with the
  // clamped solution as the starting point.
  if (!nodesets.empty()) {
    for (const auto& [node, volts] : nodesets) {
      if (node >= 0 && node < static_cast<int>(ctx.x.size())) {
        ctx.x[static_cast<std::size_t>(node)] = volts;
      }
    }
    NewtonInputs inputs = DcInputs(options);
    inputs.nodesets = nodesets;
    inputs.nodeset_g = 1.0;
    const NewtonStats stats =
        SolveNewton(ctx, inputs, options, options.max_dcop_iters);
    if (!stats.converged) {
      WP_DEBUG << "dcop: clamped nodeset pass failed; continuing unclamped";
    }
  }
  const std::vector<double> initial_guess = ctx.x;
  // Each strategy starts from initial_guess and, on failure, must leave no
  // residue in ctx.x for the next one (a half-stepped continuation iterate
  // is a WORSE starting point than the original guess).  The attempts log
  // records what was tried so the final error is actionable.
  std::string attempts;
  const auto log_attempt = [&attempts](const std::string& entry) {
    if (!attempts.empty()) attempts += ", ";
    attempts += entry;
  };

  // --- Strategy 1: direct ----------------------------------------------------
  {
    NewtonStats stats = SolveNewton(ctx, DcInputs(options), options, options.max_dcop_iters);
    if (stats.converged) return {stats, "direct"};
    WP_DEBUG << "dcop: direct Newton failed after " << stats.iterations << " iterations";
    log_attempt("direct (" + std::to_string(stats.iterations) + " iters)");
  }

  // --- Strategy 2: gmin stepping ----------------------------------------------
  {
    ctx.x = initial_guess;
    NewtonInputs inputs = DcInputs(options);
    bool ladder_ok = true;
    // Shunt ladder from 10 mS down to 0, log-spaced.
    double gshunt = 1e-2;
    int failed_rung = 0;
    int failed_iters = 0;
    for (int step = 0; step < options.gmin_stepping_steps && ladder_ok; ++step) {
      inputs.gshunt = gshunt;
      NewtonStats stats = SolveNewton(ctx, inputs, options, options.max_dcop_iters);
      if (!stats.converged) {
        ladder_ok = false;
        failed_rung = step + 1;
        failed_iters = stats.iterations;
        break;
      }
      gshunt /= 10.0;
    }
    if (ladder_ok) {
      // Final solve with the shunt fully removed.
      inputs.gshunt = 0.0;
      NewtonStats stats = SolveNewton(ctx, inputs, options, options.max_dcop_iters);
      if (stats.converged) return {stats, "gmin-stepping"};
      log_attempt("gmin-stepping (release solve, " + std::to_string(stats.iterations) +
                  " iters)");
    } else {
      log_attempt("gmin-stepping (rung " + std::to_string(failed_rung) + "/" +
                  std::to_string(options.gmin_stepping_steps) + ", " +
                  std::to_string(failed_iters) + " iters)");
    }
    WP_DEBUG << "dcop: gmin stepping failed";
  }

  // --- Strategy 3: source stepping ---------------------------------------------
  {
    ctx.x = initial_guess;
    NewtonInputs inputs = DcInputs(options);
    for (int step = 1; step <= options.source_stepping_steps; ++step) {
      inputs.source_scale =
          static_cast<double>(step) / static_cast<double>(options.source_stepping_steps);
      NewtonStats stats = SolveNewton(ctx, inputs, options, options.max_dcop_iters);
      if (!stats.converged) {
        log_attempt("source-stepping (step " + std::to_string(step) + "/" +
                    std::to_string(options.source_stepping_steps) + ", " +
                    std::to_string(stats.iterations) + " iters)");
        break;
      }
      if (step == options.source_stepping_steps) return {stats, "source-stepping"};
    }
  }

  // Leave the context exactly as the caller handed it over: a failed
  // mid-ladder continuation iterate must not masquerade as a solution.
  ctx.x = initial_guess;
  throw ConvergenceError("DC operating point failed; tried: " + attempts);
}

std::shared_ptr<SolutionPoint> MakeDcSolutionPoint(const SolveContext& ctx, double time) {
  auto point = std::make_shared<SolutionPoint>();
  point->time = time;
  point->x = ctx.x;
  point->q = ctx.state_now;
  point->qdot.assign(ctx.state_now.size(), 0.0);
  return point;
}

}  // namespace wavepipe::engine

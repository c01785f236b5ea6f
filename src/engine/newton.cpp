#include "engine/newton.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/telemetry.hpp"

namespace wavepipe::engine {

void NewtonStats::ExportCounters(util::telemetry::CounterRegistry& registry) const {
  registry.Count("newton.converged", converged ? 1 : 0);
  registry.Count("newton.iterations", static_cast<std::uint64_t>(iterations));
  registry.Value("newton.final_delta", final_delta);
  registry.Count("newton.lu_full_factors", static_cast<std::uint64_t>(lu_full_factors));
  registry.Count("newton.lu_refactors", static_cast<std::uint64_t>(lu_refactors));
  registry.Count("newton.chord_solves", static_cast<std::uint64_t>(chord_solves));
  registry.Count("newton.forced_refactors", static_cast<std::uint64_t>(forced_refactors));
  registry.Count("newton.singular", singular ? 1 : 0);
}

void AssemblyStats::ExportCounters(util::telemetry::CounterRegistry& registry) const {
  registry.Count("assembly.colors", static_cast<std::uint64_t>(colors));
  registry.Count("assembly.conflict_edges", conflict_edges);
  registry.Count("assembly.max_degree", static_cast<std::uint64_t>(max_degree));
  registry.Count("assembly.passes", passes);
  registry.Value("assembly.zero_seconds", zero_seconds);
  registry.Value("assembly.stamp_seconds", stamp_seconds);
  registry.Value("assembly.merge_seconds", merge_seconds);
}

SolveContext::SolveContext(const Circuit& circuit, const MnaStructure& structure)
    : matrix(structure.pattern()),
      rhs(static_cast<std::size_t>(structure.dimension()), 0.0),
      x(static_cast<std::size_t>(structure.dimension()), 0.0),
      x_new(static_cast<std::size_t>(structure.dimension()), 0.0),
      state_now(static_cast<std::size_t>(circuit.num_states()), 0.0),
      state_hist(static_cast<std::size_t>(circuit.num_states()), 0.0),
      limit_a(static_cast<std::size_t>(circuit.num_limit_slots()), 0.0),
      limit_b(static_cast<std::size_t>(circuit.num_limit_slots()), 0.0),
      circuit_(&circuit),
      structure_(&structure) {
  WP_ASSERT(circuit.finalized());
}

void SolveContext::RecordFactorSeeds(FactorSeeds& seeds, bool did_full_factor) {
  if (!record_factor_seeds) return;
  seeds.numeric.assign(matrix.values().begin(), matrix.values().end());
  if (did_full_factor || seeds.full.empty()) seeds.full = seeds.numeric;
}

void SolveContext::PrimeFactorsFromSeeds(const FactorSeeds& lu_from,
                                         const FactorSeeds& bbd_from) {
  const auto load = [this](std::span<const double> values) {
    WP_ASSERT(values.size() == matrix.values().size());
    std::copy(values.begin(), values.end(), matrix.mutable_values().begin());
  };
  if (lu_from.valid()) {
    load(lu_from.full);
    lu.Factor(matrix);
    if (lu_from.numeric != lu_from.full) {
      load(lu_from.numeric);
      // The interrupted run's Refactor on these exact values succeeded, so
      // the fallback only guards adversarial checkpoint contents.
      if (!lu.Refactor(matrix)) lu.Factor(matrix);
    }
    lu_seeds = lu_from;
  }
  if (bbd_from.valid() && bbd.configured()) {
    load(bbd_from.full);
    bbd.FactorOrRefactor(matrix, factor_pool);
    if (bbd_from.numeric != bbd_from.full) {
      load(bbd_from.numeric);
      bbd.FactorOrRefactor(matrix, factor_pool);
    }
    bbd_seeds = bbd_from;
  }
  matrix.ZeroValues();
}

void EvalDevices(SolveContext& ctx, const NewtonInputs& inputs, bool limit_valid,
                 bool first_iteration) {
  WP_TSPAN("assembly", "eval_devices");
  // Latency bypass: open the pass gate before either assembly path runs so
  // the serial loop and the colored assembler share one replay decision.
  ctx.bypass.BeginPass(inputs.a0, inputs.transient, inputs.gmin, inputs.source_scale);

  if (ctx.assembler != nullptr) {
    // Delegated zero+stamp (e.g. colored conflict-free parallel assembly).
    ctx.assembler->Assemble(ctx, inputs, limit_valid, first_iteration);
  } else {
    ctx.matrix.ZeroValues();
    std::fill(ctx.rhs.begin(), ctx.rhs.end(), 0.0);

    devices::EvalContext eval;
    eval.time = inputs.time;
    eval.a0 = inputs.a0;
    eval.transient = inputs.transient;
    eval.first_iteration = first_iteration;
    eval.gmin = inputs.gmin;
    eval.source_scale = inputs.source_scale;
    eval.gshunt = inputs.gshunt;
    eval.x = ctx.x;
    eval.jacobian_values = ctx.matrix.mutable_values();
    eval.rhs = ctx.rhs;
    eval.state_now = ctx.state_now;
    eval.state_hist = ctx.state_hist;
    eval.limit_prev = ctx.limit_a;
    eval.limit_now = ctx.limit_b;
    eval.limit_valid = limit_valid;

    const auto& devices = ctx.circuit().devices();
    if (ctx.bypass.active()) {
      for (std::size_t i = 0; i < devices.size(); ++i) {
        ctx.bypass.Process(i, *devices[i], eval);
      }
    } else {
      for (const auto& device : devices) device->Eval(eval);
    }
  }

  // Fault site: a device model producing a non-finite entry.  The poisoned
  // RHS propagates through the linear solve into the iterate, where the
  // Newton loop's finite check classifies the point as divergent.
  if (WP_FAULT_POINT("device.eval_nan")) {
    ctx.rhs[0] = std::numeric_limits<double>::quiet_NaN();
  }

  // Gmin-stepping shunt: conductance from every node to ground.  Stamped
  // after devices so it can't be overwritten.
  if (inputs.gshunt > 0.0) {
    auto values = ctx.matrix.mutable_values();
    for (int slot : ctx.structure().node_diag_slots()) values[slot] += inputs.gshunt;
  }

  // Nodeset clamps (.ic): tie each listed node to its target voltage.
  if (inputs.nodeset_g > 0.0) {
    auto values = ctx.matrix.mutable_values();
    const auto& diag = ctx.structure().node_diag_slots();
    for (const auto& [node, volts] : inputs.nodesets) {
      if (node < 0 || node >= static_cast<int>(diag.size())) continue;  // voltages only
      values[diag[static_cast<std::size_t>(node)]] += inputs.nodeset_g;
      ctx.rhs[static_cast<std::size_t>(node)] += inputs.nodeset_g * volts;
    }
  }

  // The values just written to limit_b become "previous" for the next pass.
  std::swap(ctx.limit_a, ctx.limit_b);
}

ChordPolicy::ChordPolicy(SolveContext& ctx, const NewtonInputs& inputs,
                         const SimOptions& options)
    : ctx_(&ctx),
      options_(&options),
      a0_(inputs.a0),
      prev_worst_(std::numeric_limits<double>::infinity()) {
  // Chord reuse targets ctx.lu; under the BBD path that factor is idle, so
  // chord disables itself rather than solve against a never-refreshed LU.
  enabled_ = options.chord_newton && inputs.damping >= 1.0 &&
             inputs.gshunt == 0.0 && inputs.nodeset_g == 0.0 && !ctx.partition_active();
  // Adaptive attempt gate: a solve inside a backoff window never tries chord
  // steps (it still refreshes the factor snapshot for later reuse).
  allowed_ = enabled_;
  if (allowed_ && ctx.factor_reuse.backoff_solves > 0) {
    --ctx.factor_reuse.backoff_solves;
    allowed_ = false;
  }
}

bool ChordPolicy::ShouldUseChord(int iter) const {
  const FactorReusePolicy& reuse = ctx_->factor_reuse;
  if (!allowed_ || chord_off_ || !reuse.factor_valid || !reuse.worthwhile ||
      reuse.chord_iters >= options_->chord_iter_budget) {
    return false;
  }
  if (iter > 0) return true;
  const double drift = std::abs(a0_ - reuse.factor_a0);
  const double scale = std::max(std::abs(a0_), std::abs(reuse.factor_a0));
  return drift <= options_->chord_a0_reltol * scale || (drift == 0.0 && scale == 0.0);
}

void ChordPolicy::BeginChordStep(NewtonStats& stats) {
  FactorReusePolicy& reuse = ctx_->factor_reuse;
  // A reused factor whose source matrix is bitwise-identical to the current
  // one is not stale at all — the "chord" solve is an exact Newton solve
  // (linear circuits at a stable step size, or a nonlinear circuit whose
  // devices all replayed from the bypass cache).  Only a genuinely stale
  // factor needs the confirming fresh-factor iteration before acceptance.
  const auto values = ctx_->matrix.values();
  exact_factor_ = reuse.factor_values.size() == values.size() &&
                  std::equal(values.begin(), values.end(), reuse.factor_values.begin());
  ++reuse.chord_iters;
  ++stats.chord_solves;
  attempted_ = true;
  current_is_chord_ = true;
}

void ChordPolicy::NoteFactorAttempt() { ctx_->factor_reuse.factor_valid = false; }

void ChordPolicy::NoteFreshFactor() {
  FactorReusePolicy& reuse = ctx_->factor_reuse;
  reuse.factor_valid = enabled_;
  reuse.factor_a0 = a0_;
  reuse.chord_iters = 0;
  exact_factor_ = true;
  current_is_chord_ = false;
  if (enabled_) {
    // Cost gate: chord reuse only pays where factorization does real work,
    // i.e. the pattern fills in.  The ratio is symbolic (stable across
    // refactors), so recomputing it here is just a few loads.
    const auto& lu_stats = ctx_->lu.stats();
    const auto values = ctx_->matrix.values();
    const double fill = values.empty()
                            ? 1.0
                            : static_cast<double>(lu_stats.nnz_l + lu_stats.nnz_u) /
                                  static_cast<double>(values.size());
    reuse.worthwhile =
        options_->chord_fill_ratio <= 0.0 || fill >= options_->chord_fill_ratio;
    if (reuse.worthwhile) {
      reuse.factor_values.assign(values.begin(), values.end());
    } else {
      reuse.factor_values.clear();
    }
  } else {
    reuse.factor_values.clear();
  }
}

bool ChordPolicy::FinishIteration(double worst, bool passed, NewtonStats& stats) {
  const bool use_chord = current_is_chord_;
  current_is_chord_ = false;
  // Chord safety net: if a chord iterate failed to contract (or the fault
  // site "chord.degraded" simulates that), disable chord for the rest of
  // this solve and ride full Newton instead of a stale factor.  The budget
  // check catches slow-but-steady chains the rate monitor never trips.
  if (use_chord && !chord_off_) {
    const bool degraded =
        (worst > options_->chord_rate_limit * prev_worst_ && worst > 1.0) ||
        ctx_->factor_reuse.chord_iters >= options_->chord_iter_budget ||
        WP_FAULT_POINT("chord.degraded");
    if (degraded) {
      chord_off_ = true;
      ++stats.forced_refactors;
    }
  }
  // A-posteriori trust in a chord iterate without refactoring: two
  // consecutive chord steps with the same factor observe the contraction
  // rate rho of the chord map, which bounds the distance to the fixed
  // point by worst * rho / (1 - rho).  Requiring that bound <= 0.1 keeps
  // the accepted point within a tenth of the Newton tolerance — far below
  // the wobble the step controller could mistake for truncation error.
  // The rho <= 0.7 cap rejects the noise regime where a single-pair rate
  // estimate says nothing (a squashing stale LU shows rho near 1).
  const bool had_rate_evidence = prev_chord_;
  const double chord_rate = had_rate_evidence
                                ? worst / std::max(prev_worst_, 1e-300)
                                : std::numeric_limits<double>::infinity();
  const bool rate_trusted =
      use_chord && had_rate_evidence && chord_rate <= 0.7 &&
      worst * (chord_rate / (1.0 - chord_rate)) <= 0.1;
  prev_worst_ = worst;
  prev_chord_ = use_chord;
  if (!passed) return false;
  // An update measured through a genuinely stale factor can pass the norm
  // test far from the solution (the old LU squashes the true residual), so
  // a chord iterate only converges the solve when its factor is exact
  // (source matrix bitwise-equal) or its observed contraction rate bounds
  // the remaining error well inside tolerance.  A first passing chord
  // iterate has no rate evidence yet: run one more chord step to measure
  // it.  A passing iterate whose measured rate is too weak falls back to a
  // confirming fresh-factor iteration (chord_off_ here).
  if (use_chord && !exact_factor_ && !rate_trusted) {
    if (!had_rate_evidence && !chord_off_) {
      // No evidence yet — gather it with one more chord iteration.
    } else {
      chord_off_ = true;
    }
    return false;
  }
  return true;
}

void ChordPolicy::Settle(bool converged) {
  // Widen or reset the backoff window from how chord fared this solve: an
  // unproductive (or failed) solve doubles the window, a productive one
  // clears it so the next solve tries again immediately.
  if (!attempted_) return;
  FactorReusePolicy& reuse = ctx_->factor_reuse;
  if (chord_off_ || !converged) {
    reuse.backoff_len = std::min(std::max(1, reuse.backoff_len * 2), 32);
    reuse.backoff_solves = reuse.backoff_len;
  } else {
    reuse.backoff_len = 0;
  }
}

NewtonStats SolveNewton(SolveContext& ctx, const NewtonInputs& inputs,
                        const SimOptions& options, int max_iterations) {
  const int n = ctx.structure().dimension();
  const int num_nodes = ctx.circuit().num_nodes();
  NewtonStats stats;

  // Fault site: Newton declares divergence without iterating.  Exercises
  // every step-shrink / rescue / abort path above this function.
  if (WP_FAULT_POINT("newton.converge")) return stats;

  ChordPolicy chord(ctx, inputs, options);

  // Phase clocks: each lap charges the time since the previous one to
  // ctx.eval_seconds or ctx.lu_seconds — one read on entry, two per
  // iteration, one after the converged-state refresh.  The O(n) convergence
  // test rides on the next eval lap.
  using Clock = std::chrono::steady_clock;
  Clock::time_point mark = Clock::now();
  const auto lap = [&mark](double& seconds) {
    const Clock::time_point now = Clock::now();
    seconds += std::chrono::duration<double>(now - mark).count();
    mark = now;
  };

  bool limit_valid = false;
  for (int iter = 0; iter < max_iterations; ++iter) {
    stats.iterations = iter + 1;
    ++ctx.total_newton_iterations;
    ctx.heartbeat.fetch_add(1, std::memory_order_relaxed);

    try {
      EvalDevices(ctx, inputs, limit_valid, iter == 0);
      lap(ctx.eval_seconds);
    } catch (const SingularMatrixError&) {
      // A ReducedSubnet's interior factor hit a zero pivot (real, or injected
      // via "reduce.singular").  Same contract as a singular solve pivot: a
      // failed solve the step-shrink / rescue ladder owns, not an unwound run.
      stats.converged = false;
      stats.singular = true;
      stats.final_delta = std::numeric_limits<double>::infinity();
      chord.Settle(false);
      return stats;
    }
    limit_valid = true;

    if (chord.ShouldUseChord(iter)) {
      chord.BeginChordStep(stats);
      // Chord step with the reused factor, in true-residual form:
      //   x_new = x + LU_old^{-1} (b - J_new x)
      // The residual uses the FRESH Jacobian and RHS, so a converged chord
      // iterate satisfies the same fixed-point equation as a full Newton
      // iterate — only the path there changes, never the accepted solution.
      WP_TSPAN("solve", "chord_step");
      std::copy(ctx.x.begin(), ctx.x.end(), ctx.x_new.begin());
      ctx.lu.ChordStep(ctx.matrix, ctx.rhs, ctx.x_new, ctx.refine_work, ctx.lu_work,
                       ctx.factor_pool);
    } else if (ctx.partition_active()) {
      // Bordered-block-diagonal path: per-piece parallel factors + Schur
      // interface coupling on ctx.factor_pool.  Same failure contract as the
      // monolithic branch — a singular piece/interface pivot becomes a failed
      // solve the step-shrink / rescue ladder handles.
      const auto before_full = ctx.bbd.stats().full_factor_count;
      const auto before_re = ctx.bbd.stats().refactor_count;
      try {
        WP_TSPAN("factor", "bbd_factor");
        ctx.bbd.FactorOrRefactor(ctx.matrix, ctx.factor_pool);
      } catch (const SingularMatrixError&) {
        stats.converged = false;
        stats.singular = true;
        stats.final_delta = std::numeric_limits<double>::infinity();
        chord.Settle(false);
        return stats;
      }
      stats.lu_full_factors +=
          static_cast<int>(ctx.bbd.stats().full_factor_count - before_full);
      stats.lu_refactors += static_cast<int>(ctx.bbd.stats().refactor_count - before_re);
      ctx.RecordFactorSeeds(ctx.bbd_seeds,
                            ctx.bbd.stats().full_factor_count != before_full);

      std::copy(ctx.rhs.begin(), ctx.rhs.end(), ctx.x_new.begin());
      ctx.bbd.Solve(ctx.x_new, ctx.factor_pool);
    } else {
      const auto before_factor = ctx.lu.stats().factor_count;
      const auto before_refactor = ctx.lu.stats().refactor_count;
      chord.NoteFactorAttempt();
      try {
        WP_TSPAN("factor", "lu_factor");
        ctx.lu.FactorOrRefactor(ctx.matrix, ctx.factor_pool);
      } catch (const SingularMatrixError&) {
        // A singular pivot at this trial point is reported as a failed solve,
        // not an unwound simulation: the caller shrinks the step or climbs the
        // rescue ladder, both of which change the Jacobian it will retry with.
        stats.converged = false;
        stats.singular = true;
        stats.final_delta = std::numeric_limits<double>::infinity();
        chord.Settle(false);
        return stats;
      }
      stats.lu_full_factors += static_cast<int>(ctx.lu.stats().factor_count - before_factor);
      stats.lu_refactors += static_cast<int>(ctx.lu.stats().refactor_count - before_refactor);
      ctx.RecordFactorSeeds(ctx.lu_seeds,
                            ctx.lu.stats().factor_count != before_factor);
      chord.NoteFreshFactor();

      WP_TSPAN("solve", "triangular_solve");
      std::copy(ctx.rhs.begin(), ctx.rhs.end(), ctx.x_new.begin());
      ctx.lu.SolveParallel(ctx.x_new, ctx.lu_work, ctx.factor_pool);
      for (int r = 0; r < options.newton_refine_steps; ++r) {
        ctx.lu.Refine(ctx.matrix, ctx.rhs, ctx.x_new, ctx.refine_work, ctx.lu_work);
      }
    }
    lap(ctx.lu_seconds);

    // Damped update (rescue ladder): pull the full Newton step back toward
    // the current iterate.  The convergence norm below then measures the
    // damped update, so convergence still means "the iterate stopped moving".
    if (inputs.damping < 1.0) {
      for (int i = 0; i < n; ++i) {
        ctx.x_new[i] = ctx.x[i] + inputs.damping * (ctx.x_new[i] - ctx.x[i]);
      }
    }

    // Weighted max-norm convergence test (SPICE-style).
    double worst = 0.0;
    bool finite = true;
    for (int i = 0; i < n; ++i) {
      const double xn = ctx.x_new[i];
      if (!std::isfinite(xn)) {
        finite = false;
        break;
      }
      const double tol = options.reltol * std::max(std::abs(xn), std::abs(ctx.x[i])) +
                         (i < num_nodes ? options.vntol : options.abstol);
      worst = std::max(worst, std::abs(xn - ctx.x[i]) / tol);
    }
    if (!finite) {
      // Diverged; restart damping won't save an inf/NaN iterate.
      stats.converged = false;
      stats.final_delta = std::numeric_limits<double>::infinity();
      chord.Settle(false);
      return stats;
    }

    std::swap(ctx.x, ctx.x_new);
    stats.final_delta = worst;

    // Convergence: the weighted update is within tolerance.  Nonlinear
    // circuits normally need a confirming second pass (the first update away
    // from an arbitrary guess says nothing) — EXCEPT when the very first
    // update is already far inside tolerance: then the seed was the solution
    // (hot start), and demanding another iteration would make forward
    // pipelining's repair pass as expensive as a cold solve.  The chord
    // policy has the final say: a passing iterate computed through a stale
    // factor is only accepted when its trust gate holds.
    const bool hot_start_accept = worst <= 0.05;
    const bool confirmed =
        worst <= 1.0 &&
        (iter >= 1 || !ctx.circuit().is_nonlinear() || inputs.trusted_seed);
    if (chord.FinishIteration(worst, confirmed || hot_start_accept, stats)) {
      stats.converged = true;
      // ctx.state_now was evaluated at the pre-update iterate; refresh it at
      // the converged point unless the update was too small to matter.
      if (worst > 0.1) {
        try {
          EvalDevices(ctx, inputs, /*limit_valid=*/true, /*first_iteration=*/false);
          lap(ctx.eval_seconds);
        } catch (const SingularMatrixError&) {
          stats.converged = false;
          stats.singular = true;
          stats.final_delta = std::numeric_limits<double>::infinity();
          chord.Settle(false);
          return stats;
        }
      }
      chord.Settle(true);
      return stats;
    }
  }
  stats.converged = false;
  chord.Settle(false);
  return stats;
}

}  // namespace wavepipe::engine

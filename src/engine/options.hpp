// Simulation options shared by DC, transient, and the WavePipe schedulers.
// Field names and defaults follow SPICE .options conventions.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace wavepipe::sparse {
class OrderingCache;  // sparse/ordering_cache.hpp
struct BbdPlan;       // sparse/bbd.hpp
}  // namespace wavepipe::sparse

namespace wavepipe::engine {

struct TransientCheckpoint;  // engine/resilience.hpp

/// Durable-run configuration (engine/resilience.hpp): checkpoint cadence,
/// resume source, run budgets, the stall watchdog, and the feature
/// circuit-breakers.  Everything here defaults to "off"/no-op so that a run
/// with no resilience flags is bit-identical to historical behavior.
struct ResilienceOptions {
  // ---- checkpoint/restart ---------------------------------------------------
  /// Base path for durable snapshots (slots `<path>.a` / `<path>.b`,
  /// util/checkpoint.hpp).  Empty disables checkpointing.
  std::string checkpoint_path;
  /// Write a checkpoint every N accepted steps (0 = wall-cadence only).
  std::uint64_t checkpoint_every_steps = 0;
  /// Write a checkpoint every T wall-seconds (0 = step-cadence only).  The
  /// default cadence when --checkpoint is given with neither knob.
  double checkpoint_every_seconds = 15.0;
  /// Deserialized engine state to resume from (owned by the caller; null for
  /// a fresh run).  Engines restore history/trace/stats/step-control from it
  /// and skip the DC operating point.
  const TransientCheckpoint* resume = nullptr;

  // ---- run-budget governor --------------------------------------------------
  /// Hard ceilings checked at accepted-step (serial/fine-grained) or round
  /// (pipeline) boundaries.  0 = unlimited.  Exhaustion writes a final
  /// checkpoint (when enabled) and aborts structurally with an abort_reason
  /// starting with kBudgetExhausted — never a throw, never lost work.
  double max_wall_seconds = 0.0;
  std::uint64_t max_steps = 0;         ///< accepted steps this PROCESS (post-resume)
  std::uint64_t max_newton_total = 0;  ///< cumulative Newton iterations

  // ---- stall watchdog -------------------------------------------------------
  /// Monitor thread sampling per-worker heartbeats (ThreadPool task counters
  /// + per-context Newton beats).  Off by default: a default run spawns no
  /// extra thread.
  bool watchdog = false;
  double watchdog_interval_seconds = 2.0;
  /// Consecutive no-progress sampling intervals before the stall escalates.
  int watchdog_stall_intervals = 3;

  // ---- feature circuit-breakers --------------------------------------------
  /// Per-feature failure EWMAs (chord, bypass, partition, parallel factor,
  /// parallel assembly) that degrade a misbehaving accelerated path to the
  /// bit-identical monolithic serial path, with a half-open re-probe after a
  /// cooldown.  Enabled by default: on a healthy run no breaker ever trips,
  /// and with every feature off there is nothing to degrade — the default
  /// path is untouched.
  bool breakers = true;
  /// Consecutive feature-attributed solve failures that trip a breaker.
  int breaker_trip_threshold = 4;
  /// Accepted steps an open breaker waits before re-probing (doubles on each
  /// re-trip).
  std::uint64_t breaker_cooldown_steps = 64;
};

/// Implicit integration method for transient analysis.
enum class Method {
  kBackwardEuler,  ///< order 1, L-stable; used for the first step and restarts
  kTrapezoidal,    ///< order 2, A-stable; SPICE default
  kGear2,          ///< order 2 BDF, L-stable; preferred for stiff circuits
};

inline const char* MethodName(Method m) {
  switch (m) {
    case Method::kBackwardEuler: return "be";
    case Method::kTrapezoidal: return "trap";
    case Method::kGear2: return "gear2";
  }
  return "?";
}

/// Integration order of a method (the LTE exponent is order + 1).
inline int MethodOrder(Method m) { return m == Method::kBackwardEuler ? 1 : 2; }

/// Rungs of the time-point rescue ladder (engine/rescue.hpp), in escalation
/// order.  Used as indices into the TransientStats rescue counters.
enum class RescueRung {
  kBackwardEuler = 0,  ///< BE restart with a constant predictor
  kDampedNewton = 1,   ///< BE restart + damped Newton updates
  kGshuntRamp = 2,     ///< transient gshunt continuation ramp
};
inline constexpr int kNumRescueRungs = 3;

inline const char* RescueRungName(RescueRung rung) {
  switch (rung) {
    case RescueRung::kBackwardEuler: return "be-restart";
    case RescueRung::kDampedNewton: return "damped-newton";
    case RescueRung::kGshuntRamp: return "gshunt-ramp";
  }
  return "?";
}

/// Time-point rescue ladder configuration.  The ladder only runs after the
/// normal step-shrinking loop has already failed all the way down to hmin —
/// the clean path never touches it (pay-on-failure only).
struct RescueOptions {
  bool enabled = true;
  /// Damped-Newton rung: attempts with update scale damping, damping^2, ...
  int damped_attempts = 2;
  double damping = 0.5;
  /// Gshunt rung: ramp from gshunt_start down one decade per stage for
  /// `gshunt_stages` stages, then a final solve with the shunt removed.
  int gshunt_stages = 4;
  double gshunt_start = 1e-3;
  /// Extra Newton budget while rescuing (multiplies max_newton_iters).
  int max_iters_scale = 2;
};

struct SimOptions {
  // ---- tolerances (SPICE defaults) ---------------------------------------
  double reltol = 1e-3;   ///< relative tolerance on all unknowns
  double vntol = 1e-6;    ///< absolute tolerance on node voltages [V]
  double abstol = 1e-12;  ///< absolute tolerance on branch currents [A]
  double gmin = 1e-12;    ///< minimum junction conductance [S]

  // ---- Newton-Raphson ------------------------------------------------------
  int max_newton_iters = 60;      ///< per time point ("itl4" role)
  int max_dcop_iters = 200;       ///< for the operating point ("itl1")
  int gmin_stepping_steps = 12;   ///< continuation ladder length
  int source_stepping_steps = 20;

  // ---- transient step control ---------------------------------------------
  Method method = Method::kTrapezoidal;
  double trtol = 7.0;         ///< LTE overestimation compensation (SPICE trtol)
  double step_safety = 0.9;   ///< multiplier on the LTE-optimal next step
  double step_growth = 2.0;   ///< serial growth cap gamma: h_next <= gamma*h
  double min_shrink = 0.1;    ///< floor on per-decision step reduction
  double reject_shrink = 0.5; ///< extra factor applied on an LTE rejection
  int newton_fail_shrink = 8; ///< divide h by this on Newton failure
  double hmax = 0.0;          ///< 0 = auto ((tstop - tstart) / 50)
  double hmin_ratio = 1e-9;   ///< hmin = hmin_ratio * (tstop - tstart)
  double first_step_ratio = 1e-3;  ///< h0 = ratio * min(tstep, hmax)

  // ---- robustness -----------------------------------------------------------
  /// Escalation ladder tried when Newton failure shrinks the step to hmin
  /// (the historical hard-abort point).  See engine/rescue.hpp.
  RescueOptions rescue;

  // ---- bookkeeping ----------------------------------------------------------
  int history_depth = 8;  ///< solution points kept for predictors/LTE

  // ---- linear-solver extras -------------------------------------------------
  /// Iterative-refinement steps applied to each converged Newton update
  /// (x += A \ (b - A x)).  0 (default) keeps the historical bit-exact
  /// behavior; 1 is plenty for ill-conditioned MNA systems.
  int newton_refine_steps = 0;

  // ---- domain decomposition -------------------------------------------------
  /// Bordered-block-diagonal solve path: partition the unknowns into this
  /// many pieces (vertex-separator plan from src/partition), factor/solve
  /// the pieces in parallel and couple them through a Schur complement on
  /// the interface.  0 (default) keeps the monolithic LU path bit-identical
  /// to historical behavior; values are clamped to the system dimension.
  int partition_pieces = 0;

  // ---- latency bypass & chord Newton ---------------------------------------
  /// Device latency bypass (SPICE-style): cache each bypassable device's
  /// stamped Jacobian/RHS contributions and replay them while its controlling
  /// voltages stay within the latency tolerance.  Off by default — the
  /// default path stays bit-exact with historical behavior.
  bool device_bypass = false;
  /// User multiplier on the latency comparison tolerance.  The comparison
  /// itself runs at 1% of the solver tolerance pair (reltol, vntol/abstol) —
  /// DeviceBypass::kLatencyScale — times this value; replay at the solver's
  /// own tolerances would wobble accepted solutions at LTE-tolerance scale
  /// and collapse the step size to hmin.  1.0 keeps the measured-safe scale;
  /// smaller values bypass more conservatively.
  double bypass_vtol = 1.0;
  /// Chord Newton: keep the previous LU factor across iterations (and across
  /// time points while a0 is stable), solving the true-residual form
  /// x += LU_old \ (b - J_new x) instead of refactoring every iteration.
  /// The contraction monitor and the iteration budget below force a fresh
  /// refactor whenever the stale factor stops paying.  Off by default.
  bool chord_newton = false;
  /// Force a refactor when a chord iterate's weighted update fails to shrink
  /// below `chord_rate_limit` times the previous one (and is not converged).
  double chord_rate_limit = 0.5;
  /// Chord solves allowed per factor before a refactor is forced.  The
  /// trust gates (exact-factor match or an observed-contraction bound) do
  /// the accuracy policing, so the budget is a staleness backstop, not a
  /// tuning knob: long step-size plateaus legitimately reuse one factor for
  /// hundreds of solves.
  int chord_iter_budget = 500;
  /// Maximum relative drift of the integrator coefficient a0 for reusing a
  /// factor across time points (a0 scales every capacitive companion
  /// conductance, so the drift bounds the chord contraction rate on
  /// capacitive nodes; past ~30% the iteration stops paying for itself).
  double chord_a0_reltol = 0.3;
  /// Cost gate: LU fill ratio (|L|+|U| over |A|) below which chord reuse is
  /// not attempted.  Without fill-in a refactorization costs about as much
  /// as the triangular solve a chord iteration needs anyway, so reuse can
  /// only add iterations (ladders, chains and trees factor fill-free; 2-D
  /// meshes fill 3-5x and profit).  Set to 0 to attempt chord everywhere.
  double chord_fill_ratio = 2.0;

  // ---- durable runs ---------------------------------------------------------
  /// Checkpoint/restart, run budgets, watchdog, circuit-breakers.  All
  /// defaults are no-ops on the clean path (engine/resilience.hpp).
  ResilienceOptions resilience;

  // ---- shared symbolic artifacts (batch analysis) ---------------------------
  /// Shared fill-reducing-ordering cache attached to every SparseLu the run
  /// creates (sparse/ordering_cache.hpp).  The batch runner hands all
  /// variants of one pattern a single cache so the minimum-degree ordering
  /// is computed once; a cache hit returns the identical permutation the
  /// instance would have computed itself, so results stay bit-identical.
  /// Not owned.  Null (default): a pipeline run shares a cache of its own
  /// across its contexts, BBD pieces (--partition) included; the serial and
  /// fine-grained loops, with one LU, keep its private single-slot cache and
  /// a BBD solver's own piece cache.
  sparse::OrderingCache* ordering_cache = nullptr;
  /// Precomputed BBD partition plan (partition::PartitionPattern) reused
  /// instead of re-partitioning when partition_pieces > 0.  The plan is a
  /// pure function of the sparsity pattern, so sharing one across variants
  /// of a common pattern changes nothing numerically.  Null (default) lets
  /// each run compute its own.
  std::shared_ptr<const sparse::BbdPlan> partition_plan;
};

}  // namespace wavepipe::engine

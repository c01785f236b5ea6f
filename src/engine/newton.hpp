// Newton–Raphson nonlinear solver and its per-thread workspace.
//
// SolveContext bundles everything one solver thread mutates: Jacobian
// values, RHS, iterate, dynamic state, limiting memory, and the sparse LU.
// WavePipe gives each worker its own SolveContext; the Circuit and
// MnaStructure stay shared and read-only.
#pragma once

#include <atomic>
#include <span>
#include <vector>

#include "engine/bypass.hpp"
#include "engine/circuit.hpp"
#include "engine/factor_cache.hpp"
#include "engine/mna.hpp"
#include "engine/options.hpp"
#include "sparse/bbd.hpp"
#include "sparse/lu.hpp"

namespace wavepipe::util {
class ThreadPool;
namespace telemetry {
class CounterRegistry;
}
}  // namespace wavepipe::util

namespace wavepipe::engine {

struct NewtonStats {
  bool converged = false;
  int iterations = 0;
  double final_delta = 0.0;   ///< max weighted update of the last iteration
  int lu_full_factors = 0;
  int lu_refactors = 0;
  /// Chord-Newton iterations that reused a stale LU factor instead of
  /// refactoring (0 unless SimOptions::chord_newton is on).
  int chord_solves = 0;
  /// Refactorizations forced by the chord safety net: degraded contraction
  /// rate, exhausted per-factor iteration budget, or fault injection.
  int forced_refactors = 0;
  /// Factor demands ctx.factor_cache served, and those it was consulted on
  /// but could not serve (both 0 unless the cache is configured and the
  /// circuit is linear).  lu_full_factors + lu_refactors + factor_cache_hits
  /// counts every monolithic factor demand.
  int factor_cache_hits = 0;
  int factor_cache_misses = 0;
  /// The iteration aborted on a singular (or injected) pivot failure rather
  /// than plain non-convergence.  Reported instead of letting the
  /// SingularMatrixError unwind: a singular Jacobian at one trial point is a
  /// recoverable event (shrink the step, climb the rescue ladder), not a
  /// reason to discard the waveform computed so far.
  bool singular = false;

  /// Registers every field under the `newton.` prefix (util/telemetry.hpp).
  void ExportCounters(util::telemetry::CounterRegistry& registry) const;
};

struct NewtonInputs;
class SolveContext;

/// How an attached assembler spent its time and what it decided — surfaced
/// through TransientResult / WavePipeResult so benches can report the
/// coloring-vs-reduction split without reaching into parallel internals.
struct AssemblyStats {
  const char* strategy = "serial";  ///< "serial", "reduction", or "colored"
  int colors = 0;                   ///< color phases (0 = not colored)
  std::size_t conflict_edges = 0;   ///< device-conflict graph edges
  int max_degree = 0;               ///< max conflict degree over devices
  std::uint64_t passes = 0;         ///< assembly passes executed
  double zero_seconds = 0.0;        ///< zeroing matrix/RHS (shared or private)
  double stamp_seconds = 0.0;       ///< device evaluation proper
  double merge_seconds = 0.0;       ///< reduction publish + shared sum, or color barriers

  /// Registers the numeric fields under the `assembly.` prefix; the strategy
  /// string travels in the run-stats header, not the registry.
  void ExportCounters(util::telemetry::CounterRegistry& registry) const;
};

/// Strategy hook for the device-evaluation half of EvalDevices().  A
/// SolveContext with an attached assembler delegates the zero+stamp work to
/// it — this is how the colored conflict-free assembler (src/parallel)
/// drops into the serial Newton loop and into every pipelined WavePipe
/// solve without the engine depending on the parallel layer.
///
/// Contract: Assemble() must leave ctx.matrix / ctx.rhs / ctx.state_now /
/// ctx.limit_b exactly as the serial device loop would (gshunt, nodesets and
/// the limit swap stay with EvalDevices).  Implementations must be safe to
/// call concurrently on DIFFERENT contexts (WavePipe workers share one
/// assembler across their per-slot contexts).
class DeviceAssembler {
 public:
  virtual ~DeviceAssembler() = default;
  virtual void Assemble(SolveContext& ctx, const NewtonInputs& inputs, bool limit_valid,
                        bool first_iteration) = 0;
  virtual AssemblyStats stats() const = 0;
};

/// Per-context chord-Newton bookkeeping: tracks whether ctx.lu currently
/// holds a factor that may legally serve as a chord map, and how much it has
/// been reused.  Lives in the SolveContext so the reuse window naturally
/// spans Newton iterations AND consecutive time points solved on the same
/// context (WavePipe workers each carry their own policy state).
struct FactorReusePolicy {
  /// ctx.lu's factor was computed from a chord-clean Jacobian (full update,
  /// no gshunt/nodeset clamps) and nothing has invalidated it since.
  bool factor_valid = false;
  /// Integrator coefficient a0 the factor was computed at; cross-time-point
  /// reuse is gated on its relative drift (chord_a0_reltol).
  double factor_a0 = 0.0;
  /// Chord solves performed with the current factor (chord_iter_budget).
  int chord_iters = 0;
  /// The factored pattern's fill ratio clears options.chord_fill_ratio:
  /// computed after each factorization; false until the first one.
  bool worthwhile = false;
  /// Adaptive backoff: after a solve in which chord proved unproductive
  /// (degraded contraction or a failed confirmation), chord attempts are
  /// skipped for `backoff_solves` further solves; the window doubles on each
  /// consecutive unproductive attempt and resets on a productive one.
  int backoff_solves = 0;
  int backoff_len = 0;
  /// Bitwise snapshot of the matrix values the factor was computed from.
  /// When the current matrix equals this snapshot, a "chord" solve is in fact
  /// an exact Newton solve and its convergence test can be trusted; when it
  /// differs, a chord-converged iterate must be confirmed by one fresh-factor
  /// iteration before acceptance (a stale LU can squash a large true residual
  /// into an update that passes the weighted-norm test).
  std::vector<double> factor_values;
};

/// Chord-Newton attempt/accept policy of engine::SolveNewton, the one Newton
/// loop: the fine-grained engine is the transient driver's serial scheme
/// with an intra-solve pool attached to its SolveContext, so it runs this
/// same policy on the same loop.  One instance
/// lives for one solve and owns every chord decision — whether an iteration
/// may reuse the factor in ctx.lu (fill-ratio cost gate, cross-solve
/// backoff, a0 drift), whether a passing iterate may be trusted (exact
/// bitwise factor or an observed contraction rate bounding the remaining
/// error), and when the safety net forces a fresh factorization.  The loop
/// keeps ownership of the LU calls themselves; the policy only mutates
/// ctx.factor_reuse.
class ChordPolicy {
 public:
  /// Consumes one backoff credit when the solve enters inside a backoff
  /// window (such a solve never attempts chord steps but still refreshes the
  /// factor snapshot for later reuse).  Chord is structurally sound only for
  /// the plain undamped Newton map: damping rescales the update outside the
  /// solve, and gshunt / nodeset clamps put conductances into the factored
  /// matrix that the chord residual (clean device Jacobian) would not see.
  ChordPolicy(SolveContext& ctx, const NewtonInputs& inputs, const SimOptions& options);

  /// True when this iteration may run as a chord step with the factor
  /// already in ctx.lu.  Within a solve any chord-clean factor qualifies;
  /// entering a new solve (iter 0) additionally requires the integrator
  /// coefficient a0 not to have drifted, since a0 scales every capacitive
  /// companion conductance in the matrix the factor came from.
  bool ShouldUseChord(int iter) const;

  /// Call after device assembly, immediately before ChordStep(): bumps the
  /// reuse counters and records whether the factor is bitwise-exact for the
  /// freshly assembled matrix (then the "chord" solve is an exact Newton
  /// solve and its convergence test can be trusted as-is).
  void BeginChordStep(NewtonStats& stats);

  /// Call before FactorOrRefactor(): invalidates the reuse state so a
  /// thrown SingularMatrixError cannot leave a stale factor marked valid.
  void NoteFactorAttempt();

  /// Call after a successful FactorOrRefactor(): refreshes the reuse
  /// snapshot, the a0 tag, and the fill-ratio cost gate.
  void NoteFreshFactor();

  /// Post-iterate bookkeeping and the acceptance verdict.  `worst` is the
  /// weighted update norm of this iteration, `passed` whether the loop's
  /// convergence test passed.  Runs the degradation safety net (contraction
  /// monitor, per-factor budget, `chord.degraded` fault site) and, for chord
  /// iterates, the trust gate; returns true when a passing iterate may be
  /// accepted.  A false return with passed=true means keep iterating:
  /// either one more chord step to gather rate evidence, or a confirming
  /// fresh-factor pass (chord is off for the rest of the solve).
  bool FinishIteration(double worst, bool passed, NewtonStats& stats);

  /// Call on every exit path with the final convergence status: widens the
  /// cross-solve backoff window after a solve in which chord proved
  /// unproductive, clears it after a productive one.
  void Settle(bool converged);

 private:
  SolveContext* ctx_;
  const SimOptions* options_;
  double a0_ = 0.0;          ///< this solve's integrator coefficient
  bool enabled_ = false;     ///< chord structurally sound for this solve
  bool allowed_ = false;     ///< enabled and not inside a backoff window
  bool chord_off_ = false;   ///< chord proved unproductive at this point
  bool attempted_ = false;   ///< at least one chord step ran this solve
  bool current_is_chord_ = false;  ///< the in-flight iteration is a chord step
  bool exact_factor_ = false;      ///< factor bitwise-exact for current matrix
  bool prev_chord_ = false;        ///< previous iteration was a chord step
  double prev_worst_ = 0.0;        ///< previous iteration's weighted norm
};

/// Bitwise factor-replay seeds: the Jacobian values the linear solver saw at
/// its last FULL factorization and at its last numeric (re)factorization.
/// Refactor() output is a pure function of (symbolic state, input matrix), so
/// replaying Factor(full) then Refactor(numeric) reconstructs the solver's
/// exact state — pivot sequence AND numeric factors, down to the last ULP.
/// This is what lets a checkpoint resume continue bit-identically instead of
/// taking a fresh full factor whose summation order differs from the
/// refactor the uninterrupted run would have done (engine/resilience.hpp).
struct FactorSeeds {
  std::vector<double> full;     ///< values at the last full factorization
  std::vector<double> numeric;  ///< values at the last numeric factorization
  bool valid() const { return !full.empty(); }
};

class SolveContext {
 public:
  SolveContext(const Circuit& circuit, const MnaStructure& structure);

  const Circuit& circuit() const { return *circuit_; }
  const MnaStructure& structure() const { return *structure_; }

  /// Enables the optional device-bypass / chord-Newton acceleration on this
  /// context from the given options.  Call once after construction (and
  /// after attaching any assembler); no-op with the default options.
  void ConfigureAcceleration(const SimOptions& options) {
    bypass.Configure(*circuit_, *structure_, options);
  }

  /// Routes this context's linear solves through the bordered-block-diagonal
  /// solver (sparse/bbd.hpp) built for `plan`.  Drivers compute one plan per
  /// run (partition::PartitionPattern) and hand the same shared plan to every
  /// context, so WavePipe workers don't re-partition.  Never called with the
  /// default options — the monolithic ctx.lu path stays bit-identical.
  /// `ordering_cache` is the run's shared ordering cache, the one attached
  /// to ctx.lu (null: the solver keeps its own).
  void ConfigurePartition(std::shared_ptr<const sparse::BbdPlan> plan,
                          sparse::OrderingCache* ordering_cache = nullptr) {
    bbd.Configure(std::move(plan), structure_->pattern(), {}, ordering_cache);
  }

  /// True when linear solves go through the BBD path instead of ctx.lu.
  bool partition_active() const { return bbd.configured() && !partition_disengaged_; }

  /// Circuit-breaker hooks (engine/resilience.hpp): park/resume the BBD path
  /// without discarding the plan.  While disengaged, SolveNewton falls back
  /// to the bit-identical monolithic ctx.lu path; bbd.configured() still
  /// reports true so end-of-run stats absorption keeps its partition block.
  void DisengagePartition() { partition_disengaged_ = true; }
  void ReengagePartition() { partition_disengaged_ = false; }

  /// Captures the current Jacobian values as factor-replay seeds after a
  /// successful factorization (no-op unless record_factor_seeds is set by an
  /// engine with checkpointing engaged — the default path pays nothing).
  void RecordFactorSeeds(FactorSeeds& seeds, bool did_full_factor);

  /// Checkpoint-resume priming: replays the stored seeds through the
  /// monolithic and/or BBD solvers so their state is bit-identical to the
  /// interrupted process at the snapshot boundary.  Leaves ctx.matrix
  /// zeroed; copies the seeds into lu_seeds/bbd_seeds so a resumed run that
  /// checkpoints again before its first factorization stays replayable.
  void PrimeFactorsFromSeeds(const FactorSeeds& lu_from, const FactorSeeds& bbd_from);

  // Workspaces (public by design: the Newton loop, the DC continuation and
  // the integrators all operate on them directly).
  sparse::CscMatrix matrix;        ///< private copy of the pattern
  std::vector<double> rhs;
  std::vector<double> x;           ///< current iterate / final solution
  std::vector<double> x_new;
  std::vector<double> state_now;   ///< charges of the current iterate
  std::vector<double> state_hist;  ///< integrator history term per state
  std::vector<double> limit_a, limit_b;
  sparse::SparseLu lu;
  /// Partitioned (BBD) linear solver; engaged via ConfigurePartition().
  /// When configured, SolveNewton routes factor/solve through it (on
  /// factor_pool) and ctx.lu sits idle; chord Newton disables itself.
  sparse::BbdSolver bbd;
  std::vector<double> lu_work;  ///< per-context Solve() scratch (thread-safe LU)
  std::vector<double> refine_work;  ///< residual scratch for iterative refinement

  /// Optional assembly strategy; null = serial device loop.  Not owned — the
  /// transient driver keeps it alive (its own colored assembler, or the one a
  /// fine-grained run handed it).
  DeviceAssembler* assembler = nullptr;

  /// Optional worker pool for level-scheduled refactorization / triangular
  /// solves inside SolveNewton (RefactorParallel / SolveParallel).  Null =
  /// serial LU kernels.  Not owned; the pool may be shared with the colored
  /// assembler — assembly and factorization never overlap within one Newton
  /// iteration, so sharing is free.  Must be a pool whose workers do not
  /// themselves block on this context (WavePipe gives pipeline workers a
  /// separate intra-solve pool for exactly this reason).
  util::ThreadPool* factor_pool = nullptr;

  /// Device latency bypass (engine/bypass.hpp).  Inactive unless
  /// ConfigureAcceleration() was called with device_bypass set; both the
  /// serial device loop and the colored assembler route through it when
  /// active.  Holds atomics, which is what makes SolveContext non-copyable.
  DeviceBypass bypass;

  /// Chord-Newton factor reuse state (see SolveNewton).
  FactorReusePolicy factor_reuse;

  /// Exact numeric-factor reuse for linear circuits (engine/factor_cache.hpp).
  /// Disabled until the owning driver configures a budget.
  FactorCache factor_cache;

  /// Factor-replay seeds for checkpoint/restart (engine/resilience.hpp).
  /// Maintained by SolveNewton only while record_factor_seeds is set.
  FactorSeeds lu_seeds;
  FactorSeeds bbd_seeds;
  bool record_factor_seeds = false;

  std::uint64_t total_newton_iterations = 0;  ///< lifetime counter

  /// Lifetime wall seconds SolveNewton spent in device evaluation and in
  /// factor/solve (steady clock, two reads per iteration).  The transient
  /// loop turns them into its PhaseBreakdown.
  double eval_seconds = 0.0;
  double lu_seconds = 0.0;
  /// Lifetime seconds an attached assembler spent merging (reduction
  /// publish and shared-slot sum, or color barriers) on THIS context — part
  /// of eval_seconds.  Kept per context because pipeline slots share one
  /// assembler.
  double merge_seconds = 0.0;

  /// Liveness heartbeat: ticked once per Newton iteration (relaxed; a
  /// one-RMW-per-iteration cost).  The stall watchdog samples it from its
  /// monitor thread, which is why it is atomic while the lifetime counter
  /// above stays a plain integer.
  std::atomic<std::uint64_t> heartbeat{0};

 private:
  bool partition_disengaged_ = false;  ///< breaker parked the BBD path
  const Circuit* circuit_;
  const MnaStructure* structure_;
};

struct NewtonInputs {
  double time = 0.0;         ///< absolute time (ignored for DC)
  double a0 = 0.0;           ///< integrator derivative coefficient (0 = DC)
  bool transient = false;
  double gmin = 1e-12;       ///< junction gmin handed to devices
  double gshunt = 0.0;       ///< extra node-diagonal conductance (gmin stepping)
  double source_scale = 1.0; ///< source-stepping continuation factor
  /// The caller attests the initial guess is already near the solution
  /// (forward pipelining's repair seeds with a validated speculative
  /// solution).  Permits convergence on the very first iteration at the
  /// standard tolerance — the usual "confirming second pass" exists only to
  /// protect against arbitrary starting points.
  bool trusted_seed = false;
  /// Newton update damping: x <- x + damping * dx.  1.0 (default) is the
  /// full undamped update; the rescue ladder's damped rung retries a
  /// divergent time point with fractional steps to tame overshooting device
  /// linearizations.
  double damping = 1.0;

  /// Nodeset clamps: each (node unknown, volts) pair is tied to its target
  /// through a conductance of `nodeset_g` siemens (SPICE's .ic/.nodeset
  /// 1-ohm forcing).  Applied when nodeset_g > 0; the DC ladder runs one
  /// clamped pass, then releases and re-solves.
  std::span<const std::pair<int, double>> nodesets;
  double nodeset_g = 0.0;
};

/// Runs Newton–Raphson from the initial guess already stored in ctx.x.
/// state_hist must be filled by the caller (zero for DC).  On success ctx.x
/// is the solution and ctx.state_now the consistent charges.
NewtonStats SolveNewton(SolveContext& ctx, const NewtonInputs& inputs,
                        const SimOptions& options, int max_iterations);

/// Evaluates all devices at ctx.x into ctx.matrix/ctx.rhs/ctx.state_now
/// (one model pass, no solve).  `limit_valid` selects whether limiting
/// history from the previous pass is honoured.
void EvalDevices(SolveContext& ctx, const NewtonInputs& inputs, bool limit_valid,
                 bool first_iteration);

}  // namespace wavepipe::engine

// Transient analysis: the single-time-point solve primitive (shared with the
// WavePipe schedulers) and the conventional serial driver (the baseline every
// experiment compares against).
#pragma once

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <vector>

#include "engine/circuit.hpp"
#include "engine/dcop.hpp"
#include "engine/history.hpp"
#include "engine/integrator.hpp"
#include "engine/mna.hpp"
#include "engine/newton.hpp"
#include "engine/options.hpp"
#include "engine/resilience_stats.hpp"
#include "engine/step_control.hpp"
#include "engine/trace.hpp"

namespace wavepipe::engine {

/// Result of solving the circuit at one time point from a history window.
struct StepSolveResult {
  bool converged = false;
  /// Null unless converged.  Mutable here (the WavePipe driver tags backward
  /// points as auxiliary before publishing); converts to SolutionPointPtr
  /// when added to a History.
  std::shared_ptr<SolutionPoint> point;
  NewtonStats newton;
  IntegrationPlan plan;
  std::vector<double> predicted;  ///< predictor at t_new (LTE / FWP checks)
  /// Thread-CPU seconds of the solve (feeds the ledger).  Time the solving
  /// thread spent waiting for a core does not count, so the ledger's replay
  /// cannot see contention.
  double solve_seconds = 0.0;
  /// Non-empty when the solve ended in something harder than plain
  /// non-convergence (singular pivot, exception drained from a worker
  /// future).  Carried into abort reasons.
  std::string failure;
};

/// Per-solve parameter overrides used by the rescue ladder: the clean path
/// always passes the defaults, so the regular solve sequence is untouched.
struct SolveOverrides {
  double gshunt = 0.0;       ///< extra node-diagonal shunt (continuation)
  double damping = 1.0;      ///< Newton update damping
  int max_iters_scale = 1;   ///< multiplies options.max_newton_iters
};

/// Solves the circuit at `t_new` using history `window` (time-ascending,
/// newest last, t_new beyond it).  `restart` forces backward Euler with a
/// constant predictor — used for the first step and after breakpoints, where
/// extrapolating across a waveform kink would poison both the initial guess
/// and the integrator history.
///
/// Pure function of (window, t_new): touches only `ctx`, never shared state,
/// so WavePipe can run several of these concurrently on different contexts.
///
/// `seed_x` (optional) overrides the Newton initial guess — forward
/// pipelining's repair pass hot-starts from the speculative solution this
/// way.  The predictor is still computed for the LTE test.
StepSolveResult SolveTimePoint(SolveContext& ctx, const HistoryWindow& window, double t_new,
                               Method method, bool restart, const SimOptions& options,
                               std::span<const double> seed_x = {},
                               const SolveOverrides& overrides = {});

/// Builds the LTE/step-control parameter block from SimOptions.
StepControlParams MakeStepParams(const SimOptions& options, int num_nodes, int order);

/// Re-derives `point`'s state vector (q, then qdot) against `window` at the
/// point's own solution x — one device-evaluation pass, no solve.  Returns
/// the integration plan used.
///
/// Forward pipelining needs this when it accepts a speculative solution
/// DIRECTLY: the speculative solve computed its states against PREDICTED
/// history.  For ordinary devices that is harmless — their charges are
/// functions of the (validated) solution vector.  But a ReducedSubnet's
/// interior voltages and absorbed-capacitor charges depend on the state
/// HISTORY itself, so an unrepaired prediction error would feed state→state
/// without ever crossing the validated x, and the trapezoidal rule amplifies
/// it into ringing.  Re-evaluating against the true window pins every
/// published state to the same inputs a cold solve would have used.
IntegrationPlan RefreshPointStates(SolveContext& ctx, const HistoryWindow& window,
                                   Method method,
                                   const std::shared_ptr<SolutionPoint>& point,
                                   const SimOptions& options);

struct TransientSpec {
  double tstart = 0.0;
  double tstop = 0.0;
  double tstep = 0.0;  ///< suggested step scale (SPICE .tran TSTEP role)
  ProbeSet probes;
  bool record_step_details = true;  ///< keep per-step h / iteration records
  /// Nodeset-style initial conditions (.ic): (unknown index, volts) pairs
  /// used as the DC operating point's starting guess.  Steers multi-stable
  /// circuits (latches, ring oscillators) toward the intended state.
  std::vector<std::pair<int, double>> initial_conditions;
};

/// One accepted (or rejected) step, for the step-size figure.
struct StepRecord {
  double time = 0.0;       ///< time point solved
  double h = 0.0;
  int newton_iterations = 0;
  double lte = 0.0;        ///< normalized error estimate
  bool accepted = true;
  bool restart_step = false;
};

struct TransientStats {
  std::size_t steps_accepted = 0;
  std::size_t steps_rejected_lte = 0;
  std::size_t steps_rejected_newton = 0;
  /// Rescue-ladder telemetry, indexed by RescueRung.  An "attempt" is one
  /// rung engaged (not one Newton solve inside it); a rung that produced the
  /// accepted point also counts in rescues_succeeded.
  std::array<std::uint64_t, kNumRescueRungs> rescues_attempted{};
  std::array<std::uint64_t, kNumRescueRungs> rescues_succeeded{};
  std::uint64_t TotalRescuesAttempted() const {
    std::uint64_t total = 0;
    for (const auto count : rescues_attempted) total += count;
    return total;
  }
  std::uint64_t TotalRescuesSucceeded() const {
    std::uint64_t total = 0;
    for (const auto count : rescues_succeeded) total += count;
    return total;
  }
  std::uint64_t newton_iterations = 0;
  std::uint64_t lu_full_factors = 0;
  std::uint64_t lu_refactors = 0;
  // Latency bypass / chord Newton telemetry (0 unless the features are on).
  std::uint64_t bypassed_evals = 0;    ///< device evals replayed from cache
  std::uint64_t bypass_full_evals = 0; ///< bypassable devices evaluated fully
  std::uint64_t chord_solves = 0;      ///< Newton iterations on a stale factor
  std::uint64_t forced_refactors = 0;  ///< chord safety-net refactorizations
  /// Times the step-floor safety valve shut the bypass off mid-run: accepted
  /// steps pinned at hmin for DeviceBypass::kFloorStreakLimit in a row with
  /// replay active (the replay wobble exceeded the deck's LTE budget).
  std::uint64_t bypass_auto_disables = 0;
  double wall_seconds = 0.0;
  std::string dcop_strategy;
  // LU level-scheduling telemetry (sparse/lu.hpp), copied from the primary
  // SolveContext at the end of a run so benches and traces stop re-deriving
  // schedules.  Valid whenever the run factored at least once.
  int factor_levels = 0;                      ///< refactor DAG depth
  std::size_t factor_widest_level = 0;        ///< widest refactor level (columns)
  double modeled_refactor_speedup2 = 1.0;     ///< cost model at 2 threads
  double modeled_refactor_speedup4 = 1.0;     ///< cost model at 4 threads
  std::uint64_t lu_parallel_refactors = 0;    ///< level-scheduled refactors run
  std::uint64_t lu_refactor_fallbacks = 0;    ///< pool offered, model chose serial
  std::uint64_t lu_parallel_solves = 0;       ///< level-scheduled solves run
  // Domain-decomposition (BBD) telemetry, absorbed from each context's
  // BbdSolver at the end of a run.  All zero when --partition is off, so the
  // exported partition.* counters exist for every engine and stay 0/absent
  // of influence on the monolithic path.
  int partition_pieces = 0;
  std::size_t partition_interface_size = 0;
  double partition_piece_imbalance = 0.0;
  std::uint64_t partition_full_factors = 0;
  std::uint64_t partition_refactors = 0;
  std::uint64_t partition_solves = 0;
  std::uint64_t partition_schur_factors = 0;
  std::size_t partition_schur_nnz = 0;
  double partition_schur_seconds = 0.0;
  /// Exact factor reuse (engine/factor_cache.hpp): hits and misses summed
  /// over solves, evictions and peak bytes absorbed from each context's
  /// cache.  Exported as its own run_stats group, not by ExportCounters().
  FactorCacheStats factor_cache;

  /// Registers every field under the `transient.` prefix, the absorbed LU
  /// block under `lu.` (util/telemetry.hpp).  Rescue counters expand to one
  /// counter per rung, named by RescueRungName().
  void ExportCounters(util::telemetry::CounterRegistry& registry) const;

  /// Adds one time-point solve's Newton and factor-demand counters.
  void AbsorbNewton(const NewtonStats& newton) {
    newton_iterations += static_cast<std::uint64_t>(newton.iterations);
    lu_full_factors += static_cast<std::uint64_t>(newton.lu_full_factors);
    lu_refactors += static_cast<std::uint64_t>(newton.lu_refactors);
    chord_solves += static_cast<std::uint64_t>(newton.chord_solves);
    forced_refactors += static_cast<std::uint64_t>(newton.forced_refactors);
    factor_cache.hits += static_cast<std::uint64_t>(newton.factor_cache_hits);
    factor_cache.misses += static_cast<std::uint64_t>(newton.factor_cache_misses);
  }

  /// Merges one context's factor-cache eviction count and peak footprint.
  void AbsorbFactorCache(const FactorCache& cache) {
    factor_cache.evictions += cache.evictions();
    factor_cache.peak_bytes = std::max(factor_cache.peak_bytes, cache.peak_bytes());
  }

  /// Copies the LU telemetry block from a solver's stats snapshot.
  void AbsorbLuStats(const sparse::SparseLu::Stats& lu) {
    factor_levels = lu.factor_levels;
    factor_widest_level = lu.factor_widest_level;
    modeled_refactor_speedup2 = lu.modeled_refactor_speedup2;
    modeled_refactor_speedup4 = lu.modeled_refactor_speedup4;
    lu_parallel_refactors += lu.parallel_refactor_count;
    lu_refactor_fallbacks += lu.refactor_fallback_count;
    lu_parallel_solves += lu.parallel_solve_count;
  }

  /// Merges the BBD telemetry block from one context's partitioned solver.
  /// Static plan facts (pieces, interface, imbalance, Schur nnz) are shared
  /// by every context, so they overwrite; activity counters accumulate.
  void AbsorbPartitionStats(const sparse::BbdStats& bbd) {
    partition_pieces = bbd.pieces;
    partition_interface_size = bbd.interface_size;
    partition_piece_imbalance = bbd.piece_imbalance;
    partition_schur_nnz = bbd.schur_nnz;
    partition_full_factors += bbd.full_factor_count;
    partition_refactors += bbd.refactor_count;
    partition_solves += bbd.solve_count;
    partition_schur_factors += bbd.schur_factor_count;
    partition_schur_seconds += bbd.schur_seconds;
  }
};

/// Where the wall clock of a transient run went.  The four layers sum to
/// TransientStats::wall_seconds: SolveNewton times device evaluation and
/// factor/solve, the attached assembler reports its merge, and `control` is
/// the remainder (DC ladder bookkeeping, prediction, LTE, step control,
/// checkpoints).
struct PhaseBreakdown {
  double model_eval = 0.0;  ///< device evaluation, merge excluded
  double reduction = 0.0;   ///< assembler merge: reduction publish + shared sum, or color barriers
  double lu = 0.0;          ///< factor + triangular solves
  double control = 0.0;     ///< everything else

  double Total() const { return model_eval + reduction + lu + control; }

  /// Registers the breakdown under the `phases.` prefix (util/telemetry.hpp).
  void ExportCounters(util::telemetry::CounterRegistry& registry) const;
};

/// Intra-solve parallelism for RunTransientSerial: the conventional
/// fine-grained SPICE configuration.  The time axis stays serial; each
/// Newton iteration's device evaluation runs on `assembler` and its LU on
/// `factor_pool`.  Nothing is owned (parallel::RunTransientFineGrained
/// builds and keeps them).  The default value is the plain serial engine.
struct IntraSolve {
  DeviceAssembler* assembler = nullptr;
  util::ThreadPool* factor_pool = nullptr;
  /// Workers behind the two above; their heartbeats feed the stall watchdog.
  util::ThreadPool* pool = nullptr;

  bool engaged() const { return assembler != nullptr || factor_pool != nullptr; }
};

struct TransientResult {
  Trace trace;
  TransientStats stats;
  PhaseBreakdown phases;
  AssemblyStats assembly;  ///< the intra-solve assembler's; "serial" otherwise
  /// Durable-run telemetry (ckpt./watchdog./resilience. counter groups); all
  /// zero unless SimOptions::resilience engaged something.
  ResilienceStats resilience;
  std::vector<StepRecord> steps;
  SolutionPointPtr final_point;
  /// False when the run aborted before reaching tstop.  The trace, stats,
  /// ledger and final_point still hold everything computed up to
  /// last_good_time — an abort never discards the waveform.
  bool completed = true;
  std::string abort_reason;     ///< empty when completed
  double last_good_time = 0.0;  ///< newest accepted time point
};

/// Conventional serial SPICE transient loop: DC operating point, then
/// LTE-controlled variable-step integration with breakpoint handling.  An
/// engaged `intra` makes it the fine-grained engine: same loop, same step
/// sequence, device evaluation and LU split across a pool inside each solve,
/// and the parallel-assembly / parallel-factor circuit breakers armed.  Its
/// checkpoints carry the engine tag "fine-grained".
TransientResult RunTransientSerial(const Circuit& circuit, const MnaStructure& structure,
                                   const TransientSpec& spec, const SimOptions& options,
                                   const IntraSolve& intra = {});

/// Step scheduling limits shared by the serial and WavePipe drivers.
struct StepLimits {
  double hmin = 0.0;
  double hmax = 0.0;
  double h0 = 0.0;  ///< (re)start step size
  static StepLimits FromSpec(const TransientSpec& spec, const SimOptions& options);
};

/// A candidate step clipped against the breakpoint schedule and stop time.
struct StepClip {
  double t_new = 0.0;
  bool hit_breakpoint = false;
  bool hit_stop = false;
};

/// The ONE clipping rule both the serial engine and the pipeline driver use
/// (they previously disagreed on > vs >= at tstop, which made their step
/// sequences drift apart in the last interval).  Advances `next_breakpoint`
/// past breakpoints already within hmin of t_from, snaps t_new onto a
/// breakpoint within hmin, and clamps at tstop (stop wins over breakpoint).
StepClip ClipStepToSchedule(double t_from, double h, double tstop,
                            std::span<const double> breakpoints,
                            std::size_t& next_breakpoint, double hmin);

/// Shared loop-termination test: the newest accepted time has reached tstop
/// (up to the same relative slack in both drivers).
bool TransientHorizonReached(double newest_time, double tstop);

}  // namespace wavepipe::engine

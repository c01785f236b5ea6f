// PipelineDriver: the one transient loop.  Every scheme, and through the
// serial scheme the serial and fine-grained engines, advances its time axis
// here: fork/join round execution over a thread pool, breakpoint handling,
// history and trace management, ledger bookkeeping, rescue, checkpoints,
// budgets, watchdog and breakers.
//
// Each scheme contributes one RunRound*() method (serial.cpp, bwp.cpp,
// fwp.cpp, combined.cpp); a round inspects the shared history, plans its helper
// solves on per-slot SolveContexts, runs them and the leading point as ONE
// fork-join (SolveRound: share 0 is the lead on the driver thread, slot 0;
// share k is helper k on its slot), and decides what to accept.  The driver
// thread is one of the `threads` that solve, so the pool holds threads - 1
// workers.  Rounds are the synchronization unit: between rounds only the
// driver thread touches shared state, which keeps the scheduler
// deterministic (a requirement the tests rely on).
#pragma once

#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "engine/dcop.hpp"
#include "engine/newton.hpp"
#include "engine/resilience.hpp"
#include "engine/step_control.hpp"
#include "engine/transient.hpp"
#include "sparse/ordering_cache.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "wavepipe/wavepipe.hpp"

namespace wavepipe::pipeline {

/// What engine::RunTransientSerial and parallel::RunTransientFineGrained hand
/// the driver to run its serial scheme on one context as an engine of their
/// own.  The tag names the engine in checkpoints, which then keep the
/// single-context layout (flat replay seeds, no ledger or scheduler state),
/// and abort reasons read "transient: ...".  The fine-grained entry also
/// hands over its intra-solve pool and the assembler built on it; the driver
/// owns both from then on.
struct SingleContextEngine {
  const char* tag = "serial";  ///< "serial" | "fine-grained"
  std::unique_ptr<util::ThreadPool> pool = nullptr;
  std::unique_ptr<engine::DeviceAssembler> assembler = nullptr;
};

class PipelineDriver {
 public:
  /// A pipeline run, or with `single` one of the single-context engines
  /// (options.scheme must then be kSerial).
  PipelineDriver(const engine::Circuit& circuit, const engine::MnaStructure& structure,
                 const engine::TransientSpec& spec, const WavePipeOptions& options,
                 SingleContextEngine* single = nullptr);

  WavePipeResult Run();

 private:
  // ---- per-scheme round logic (one accepted leading step or a retry) ------
  void RunRoundSerial();
  void RunRoundBackward();
  void RunRoundForward();
  void RunRoundCombined();

  // ---- shared helpers -------------------------------------------------------
  using Clip = engine::StepClip;
  /// Clips t_from + h to the next breakpoint / tstop
  /// (engine::ClipStepToSchedule).
  Clip ClipStep(double t_from, double h);

  /// Ledger ids of the records that produced the window's points (task deps).
  std::vector<int> DepsOf(const engine::HistoryWindow& window) const;

  /// Books a solve's Newton work and records it in the ledger; returns its id
  /// (-1 when the run keeps no ledger).
  int Record(SolveKind kind, const engine::StepSolveResult& solve,
             std::vector<int> deps, bool useful);

  /// Per-scheme speculation attribution: one resolved speculative entry
  /// (accepted or not) credited to the configured scheme's sub-counters.
  void CountSchemeSpeculation(bool accepted);
  /// Same for one joined backward helper solve.
  void CountSchemeBackward();

  /// Accepts a solution point: tags it with its ledger id and adds it to the
  /// history (+ trace for leading points).
  void AcceptPoint(const std::shared_ptr<engine::SolutionPoint>& point, int ledger_id,
                   bool leading);

  /// Folds a solve's exception, if any, into a failed result counted in
  /// sched.drained_task_errors (an Error; anything else propagates).  A
  /// round acts on no outcome until every solve of its fork-join has
  /// finished, so no worker outcome is lost or outlives the round.
  void DrainError(std::exception_ptr& error, engine::StepSolveResult& result);

  /// Handles a failed leading solve (Newton divergence): shrink h, count it
  /// toward quarantine, and — once the step has shrunk to hmin — climb the
  /// rescue ladder before declaring a structured abort (never a throw).
  void OnNewtonFailure(double attempted_h, const engine::StepSolveResult& solve,
                       std::vector<int> deps);

  /// Arms/extends the serial-only cooldown once consecutive_failures_
  /// reaches options_.quarantine_threshold.
  void MaybeQuarantine();
  /// Handles an LTE rejection of the leading step.
  void OnLteRejection(const engine::StepAssessment& assess);
  /// Bookkeeping after an accepted leading step of size `h_used`.  When
  /// `update_step_control` is false the acceptance is recorded but h_ and
  /// the growth factor keep their last clean values — used for directly-
  /// accepted speculative steps, whose tolerance-scale solution noise sits
  /// on the LTE estimate as an h-independent floor and would otherwise
  /// drive the controller's err -> h feedback into a downward wobble.
  void OnLeadingAccepted(const engine::StepAssessment& assess, bool hit_breakpoint,
                         double h_used, bool update_step_control = true);

  /// Step-control parameter block with the given growth cap.
  engine::StepControlParams ParamsWithCap(int order, double cap) const;

  /// One in-flight helper solve (backward point or speculative point) on
  /// context slot `slot`, over `window`.
  struct HelperTask {
    int slot = 0;
    double time = 0.0;
    engine::HistoryWindow window;
    engine::SolutionPointPtr predicted_predecessor;  // speculative chains only
    std::vector<int> deps;
    /// Filled by SolveRound.
    engine::StepSolveResult result;
    /// Predictor that seeded this speculative entry (policy hit-rate scoring).
    SpecPredictor predictor = SpecPredictor::kPolynomial;
    /// Event-aware placement landed this entry exactly on a source corner;
    /// accepting it performs the breakpoint restart and ends the chain.
    bool hit_breakpoint = false;
  };

  /// The leading solve of a round: context slot 0, on the driver thread.
  struct LeadSolve {
    const engine::HistoryWindow& window;
    double t_new = 0.0;
    bool restart = false;
    std::span<const double> seed_x = {};  ///< fwp's hot-started repair
  };

  /// Runs a round's solves as ONE fork-join on pool_ and returns the lead's
  /// result: share 0 solves `lead` on the driver thread, and share k the
  /// k-th helper (backward points first, then the chain) on its slot,
  /// storing it in the helper's `result`.  Helpers read their windows and
  /// options_ in place while the driver waits in the join.  With no pool the
  /// helpers run after the lead, in order.  Whenever the run has a pool,
  /// "pool.task_throw" is evaluated once per solve, and a thrown Error
  /// becomes that solve's failed result, counted in
  /// sched.drained_task_errors; the other solves' results stand.
  engine::StepSolveResult SolveRound(const LeadSolve& lead,
                                     std::span<HelperTask> backward = {},
                                     std::span<HelperTask> chain = {});
  /// One solve on context slot `slot`, in the slot's telemetry lane.
  engine::StepSolveResult SolveOn(int slot, const engine::HistoryWindow& window, double t_new,
                                  bool restart, std::span<const double> seed_x);

  /// Plans `count` backward-point solves inside the trailing history
  /// interval on context slots first_slot, first_slot+1, ...
  std::vector<HelperTask> PlanBackwardTasks(int count, int first_slot);
  /// Publishes the converged backward points of a finished round
  /// (auxiliary) into the shared history + ledger.
  void PublishBackward(std::span<HelperTask> tasks);

  /// Plans up to `depth` chained speculative solves at t1+h1, t1+2*h1, ...
  /// over predicted histories.  Stops before any breakpoint/stop corner.
  std::vector<HelperTask> PlanSpeculativeChain(int depth, int first_slot, double t1,
                                               double h1,
                                               engine::HistoryWindow base_window);
  /// Discards an entire speculative chain starting at entry `from` (records
  /// the wasted work in the ledger).
  void DiscardSpeculativeChain(std::span<HelperTask> chain, std::size_t from);
  /// Validates + repairs the chain after the leading step was accepted.
  void ValidateSpeculativeChain(std::span<HelperTask> chain);

  /// Number of backward helper points this scheme/thread-count runs per
  /// round (0 when history is too short or a restart is pending).
  int BackwardPointCount() const;
  double BwpGrowthCap(int backward_points) const;

  bool Done() const;

  // ---- durable-run machinery (engine/resilience.hpp) -----------------------
  /// Serializes the CURRENT round-barrier state (rounds are the pipeline's
  /// quiescent checkpoint boundaries — between rounds no solve is in flight).
  std::vector<std::uint8_t> Snapshot();
  /// Restores history/trace/ledger/step-control/scheduler state and primes
  /// every context's linear solvers from the per-slot replay seeds (the flat
  /// seeds of a single-context checkpoint).  Throws util::CheckpointError on
  /// any fingerprint or layout mismatch.
  void RestoreFromCheckpoint(const engine::TransientCheckpoint& ck);
  /// Round-barrier hook: breaker cooldowns, checkpoint cadence, the budget
  /// governor and watchdog escalation.  Sets aborted_ to stop the run.
  void RoundBarrier();
  /// Feature mask of the accelerated paths currently engaged (breaker
  /// attribution for leading-solve outcomes).
  std::uint64_t ActiveFeatureMask() const;
  /// Degrades every feature in `tripped` across all contexts.
  void ApplyBreakerTrips(std::uint64_t tripped);
  /// Scheduler + speculation-policy state <-> checkpoint vectors.
  void PackSched(std::vector<std::uint64_t>& u64, std::vector<double>& f64) const;
  void UnpackSched(std::span<const std::uint64_t> u64, std::span<const double> f64);
  /// Context i's BBD counters net of the factor work spent PRIMING it at
  /// resume (bookkeeping, not simulation work).
  sparse::BbdStats NetBbdStats(std::size_t i) const;
  /// Sets result_'s wall clock, its layer split (result_.phases) and the
  /// assembler's stats; runs on every exit, a failed DC point included.
  void CloseBooks();

  // ---- immutable configuration ---------------------------------------------
  /// The single-context engine's checkpoint tag; null for a pipeline run.
  /// A single-context engine returns no ledger, so such a run keeps none: no
  /// records, and no ledger ids on its points.
  const char* single_engine_;
  const engine::Circuit& circuit_;
  const engine::MnaStructure& structure_;
  engine::TransientSpec spec_;
  WavePipeOptions options_;
  engine::StepLimits limits_;
  std::vector<double> breakpoints_;

  // ---- run state -------------------------------------------------------------
  /// The run's fill-reducing orderings, attached to every context's LU
  /// unless options_.sim.ordering_cache brings the caller's: every context
  /// factors the one circuit pattern, so the DC operating point orders it
  /// and every helper and speculative context reuses that ordering.
  /// Declared before contexts_ so it outlives them.
  sparse::OrderingCache ordering_cache_;
  std::vector<std::unique_ptr<engine::SolveContext>> contexts_;
  /// Assembler attached to every context: the shared conflict-free colored
  /// one (parallel/coloring.hpp) when options_.assembly_threads engages it
  /// (colored assemblers are stateless per call, so concurrent pipelined
  /// solves on different contexts can share this one instance), or the one
  /// a fine-grained run handed over.
  std::unique_ptr<engine::DeviceAssembler> assembler_;
  /// Helper-solve workers: threads - 1 of them (the driver thread solves the
  /// lead), none at one thread.  Helper k of every round runs on worker
  /// (k - 1) mod (threads - 1).
  std::unique_ptr<util::ThreadPool> pool_;
  /// Per-share exceptions of the round in flight (SolveRound); kept so a
  /// round allocates none.
  std::vector<std::exception_ptr> round_errors_;
  /// Intra-solve pool shared by colored assembly and level-scheduled LU
  /// factorization, with one worker fewer than the threads that work on a
  /// solve (the solving thread runs one share of every fork-join), or the
  /// one a fine-grained run handed over.
  /// Deliberately separate from pool_: helpers run on pool_'s workers, and a
  /// fork-join from a pool's own worker runs inline.  Concurrent solves
  /// share it one gang at a time; the others run their shares inline.
  std::unique_ptr<util::ThreadPool> intra_pool_;
  engine::History history_;
  std::size_t next_breakpoint_ = 0;
  double h_ = 0.0;
  bool restart_ = true;
  int steps_since_restart_ = 0;
  int bwp_cooldown_ = 0;  ///< rounds to hold the serial growth cap after a rejection
  double last_leading_time_ = 0.0;  ///< previous leading accept (bypass valve)
  int floor_streak_ = 0;  ///< leading accepts pinned at hmin (bypass valve)
  // ---- failure hardening -----------------------------------------------------
  bool aborted_ = false;          ///< unrecoverable failure; Run() returns partial
  std::string abort_reason_;
  int consecutive_failures_ = 0;  ///< leading Newton failures since last clean accept
  int quarantine_rounds_left_ = 0;  ///< serial-only cooldown countdown
  /// Realized step-growth factor of the last accepted leading step.  The
  /// speculative chain follows this trajectory (t2 = t1 + g*h1, ...): during
  /// cap-limited ramps the serial controller doubles every step, and a chain
  /// that reused h1 flat would fall behind the serial trajectory and lose.
  double last_growth_factor_ = 1.0;

  /// Running Newton-iteration averages (exponential moving averages) that
  /// drive the adaptive repair policy: a hot-started repair only belongs on
  /// the critical path when it is actually cheaper than the cold solve it
  /// replaces.  With cheap device models and a good predictor, cold solves
  /// converge in ~2 iterations and repairs cannot pay — the rational policy
  /// degenerates to direct-accept-or-discard.  With expensive multi-
  /// iteration models (the paper's regime) repairs stay enabled.
  double avg_lead_iters_ = 0.0;
  double avg_repair_iters_ = 0.0;
  int repair_samples_ = 0;
  bool RepairWorthwhile() const;

  /// Speculation policy (spec_policy.hpp): chain depth, predictor choice,
  /// backward count/placement.  kFixed mode observes without steering.
  SpeculationPolicy policy_;

  WavePipeResult result_;

  // ---- durable-run state (declared after result_: the sink/watchdog/breaker
  // constructors bind result_.resilience) ------------------------------------
  engine::CheckpointSink sink_;
  engine::RunBudget budget_;
  engine::StallWatchdog watchdog_;
  engine::BreakerBoard breakers_;
  util::WallTimer total_timer_;
  std::uint64_t process_steps_ = 0;   ///< accepted steps THIS process (budget basis)
  std::uint64_t process_newton_ = 0;  ///< Newton iterations THIS process
  bool chord_configured_ = false;     ///< chord enabled at construction (re-probe target)
  /// Per-context BBD factor counters spent priming replay seeds at resume.
  std::vector<sparse::BbdStats> bbd_prime_base_;
};

}  // namespace wavepipe::pipeline

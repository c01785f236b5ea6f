// WavePipe public API: waveform-pipelined parallel transient simulation.
//
// Reproduces Dong, Li, Ye, "WavePipe: parallel transient simulation of analog
// and digital circuits on multi-core shared-memory machines", DAC 2008.
//
// Three schemes over the same SPICE-class core (src/engine):
//
//  * kBackward  — backward pipelining: helper threads solve full-accuracy
//    intermediate points BEHIND the leading edge; the denser local history
//    makes the divided-difference LTE estimate trustworthy over a longer
//    extrapolation range, so the leading step's growth cap is raised
//    (gamma 2 -> 3 with one helper, -> 4 with two).  Every point is a true
//    circuit solution; acceptance still passes the unchanged LTE test.
//
//  * kForward   — forward pipelining: helper threads speculatively solve
//    FUTURE time points seeded with a polynomial prediction of the not-yet-
//    converged predecessor.  When the predecessor converges, the prediction
//    is validated; a close prediction turns the speculative solve into a
//    cheap hot-start repair, a bad one is discarded and redone.  Accuracy
//    and convergence are never compromised — speculative state is private
//    until validated.
//
//  * kCombined  — one backward helper plus forward speculation (3+ threads).
//
// kSerial is the conventional loop: one solve per round, no helpers.  It is
// the only transient loop in the repo; engine::RunTransientSerial and
// parallel::RunTransientFineGrained run it on one context (serial.cpp), and
// it produces the ledger the speedup comparisons replay.
#pragma once

#include <vector>

#include "engine/circuit.hpp"
#include "engine/mna.hpp"
#include "engine/options.hpp"
#include "engine/trace.hpp"
#include "engine/transient.hpp"
#include "wavepipe/ledger.hpp"
#include "wavepipe/spec_policy.hpp"

namespace wavepipe::pipeline {

enum class Scheme { kSerial, kBackward, kForward, kCombined };

const char* SchemeName(Scheme scheme);

struct WavePipeOptions {
  Scheme scheme = Scheme::kCombined;
  /// Threads that solve, the driver thread included: it solves the leading
  /// point of every round itself while threads - 1 pool workers solve the
  /// helpers.  Serial ignores it.
  int threads = 2;

  /// Raised leading-edge growth caps, indexed by (number of backward helper
  /// points - 1).  Reconstructed from the paper's scheme: one extra backward
  /// point justifies gamma = 3, two justify 4; beyond that the estimator
  /// gains little.
  std::vector<double> bwp_growth_caps = {3.0, 4.0, 4.5};
  /// Where in the trailing interval the backward point lands (0.5 = middle).
  double bwp_backward_fraction = 0.5;

  /// Direct-acceptance threshold for forward pipelining, in the WRMS units
  /// of the solver tolerance.  When the predicted predecessor was within
  /// this distance of the converged truth, the speculative solution is
  /// accepted AS IS: its deviation from the exact solution is of the same
  /// order as the Newton/LTE error already admitted everywhere, and skipping
  /// the repair removes the solve from the critical path entirely — this is
  /// where forward pipelining's speedup comes from.
  /// Default 1.0 = strictly within solver tolerance.  Looser values buy more
  /// overlap but inject tolerance-scale noise into the history, which costs
  /// extra LTE rejections on smooth analog circuits (see bench_abl_predictor).
  double fwp_direct_tol = 1.0;

  /// Repair threshold: predictions worse than fwp_direct_tol but within this
  /// bound trigger a hot-started re-solve against the true history (cheap,
  /// 1-2 Newton iterations); beyond it the speculative work is discarded.
  /// Accuracy never depends on this knob — only how often speculation pays.
  double fwp_prediction_tol = 8.0;

  /// Stamping threads for conflict-free colored matrix assembly INSIDE each
  /// pipelined solve (orthogonal to `threads`, which parallelizes across
  /// time points).  0/1 keeps the serial device loop.  Only engaged when the
  /// structure-only cost model judges the circuit's conflict graph colorable
  /// at a profit (see parallel/coloring.hpp); on degenerate graphs the
  /// option is silently a no-op rather than a slowdown.
  int assembly_threads = 0;

  /// Workers for level-scheduled parallel LU refactorization / triangular
  /// solves INSIDE each pipelined solve (sparse/lu.hpp).  Shares one worker
  /// pool with assembly_threads — assembly and factorization alternate
  /// within a Newton iteration, so max(assembly_threads, factor_threads)
  /// threads work on each solve: the intra-solve pool's workers plus the
  /// thread running the solve.  0/1 keeps the serial LU
  /// kernels; on circuits whose elimination DAG is too deep the per-level
  /// cost model falls back to serial automatically.
  int factor_threads = 0;

  /// Speculation quarantine: after this many CONSECUTIVE leading-point
  /// Newton failures or rescue activations, the pipelined schemes degrade
  /// to the serial round for `quarantine_rounds` rounds.  A circuit region
  /// hostile enough to keep diverging makes speculative work pure waste —
  /// and pipelined retries multiply the failure surface exactly when the
  /// solver is most fragile.  Quarantine never changes accepted solutions
  /// (the serial round applies the identical LTE test); it only withholds
  /// helpers until the leading edge is healthy again.
  int quarantine_threshold = 3;
  int quarantine_rounds = 8;

  /// Adaptive speculation policy (spec_policy.hpp).  The default kFixed mode
  /// reproduces the historical fixed-depth scheduler bit for bit; kAdaptive
  /// lets observed acceptance/cost drive chain depth, predictor choice, and
  /// backward placement.
  SpecPolicyOptions spec_policy;

  engine::SimOptions sim;
};

struct PipelineSchedStats {
  std::size_t rounds = 0;
  std::size_t backward_solves = 0;
  std::size_t speculative_solves = 0;
  std::size_t speculative_accepted = 0;
  std::size_t speculative_direct = 0;  ///< accepted without a repair pass
  std::size_t speculative_discarded = 0;
  std::size_t repair_solves = 0;
  std::uint64_t repair_newton_iterations = 0;
  // Failure-hardening telemetry.
  std::size_t quarantine_activations = 0;  ///< times the cooldown was (re)armed
  std::size_t quarantined_rounds = 0;      ///< rounds forced to the serial scheme
  std::size_t drained_task_errors = 0;     ///< worker exceptions folded into failed solves

  // Per-scheme attribution (additive to the aggregate fields above): which
  // configured scheme launched the work.  A kForward run's speculation lands
  // in fwp_*, a kCombined run's in combined_*; backward helpers split
  // between bwp_* (kBackward) and combined_* the same way.
  std::size_t fwp_speculative_solves = 0;
  std::size_t fwp_speculative_accepted = 0;
  std::size_t combined_speculative_solves = 0;
  std::size_t combined_speculative_accepted = 0;
  std::size_t bwp_backward_solves = 0;
  std::size_t combined_backward_solves = 0;

  double speculation_acceptance() const {
    return speculative_solves == 0
               ? 0.0
               : static_cast<double>(speculative_accepted) /
                     static_cast<double>(speculative_solves);
  }

  double speculation_acceptance_fwp() const {
    return fwp_speculative_solves == 0
               ? 0.0
               : static_cast<double>(fwp_speculative_accepted) /
                     static_cast<double>(fwp_speculative_solves);
  }

  double speculation_acceptance_combined() const {
    return combined_speculative_solves == 0
               ? 0.0
               : static_cast<double>(combined_speculative_accepted) /
                     static_cast<double>(combined_speculative_solves);
  }

  /// Registers every field under the `sched.` prefix (util/telemetry.hpp).
  void ExportCounters(util::telemetry::CounterRegistry& registry) const;
};

/// A pipeline run's result: the transient result every engine returns
/// (trace, stats, phases, assembly, resilience, abort state) plus the
/// scheduler's books.  `phases` is the driver thread's wall-clock split, by
/// the same formula over context 0 (which only the driver thread solves
/// on): control holds helper waits and round bookkeeping.  `assembly` is the
/// shared colored assembler's when assembly_threads engaged one.
struct WavePipeResult : engine::TransientResult {
  PipelineSchedStats sched;
  SpecPolicyStats spec;  ///< speculation-policy counters (spec.* export group)
  Ledger ledger;
};

/// Runs a transient analysis under the selected scheme.  Thread-safe with
/// respect to the circuit/structure (read-only); the calling thread drives
/// the rounds and solves each round's leading point, beside
/// options.threads - 1 pool workers.
WavePipeResult RunWavePipe(const engine::Circuit& circuit,
                           const engine::MnaStructure& structure,
                           const engine::TransientSpec& spec,
                           const WavePipeOptions& options);

}  // namespace wavepipe::pipeline

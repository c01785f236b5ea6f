// Forward pipelining.
//
// While the driver thread solves t1, helper threads already solve t2, t3,
// ... seeded with PREDICTED history (polynomial extrapolation of x, q, qdot).
// When t1 converges, each prediction is validated against the truth in
// chain order:
//
//   prediction close (WRMS <= fwp_prediction_tol)  -> the speculative
//     solution is repaired: one hot-started Newton solve against the true
//     history (typically 1-2 iterations) and the usual LTE test;
//   prediction off  -> the speculative work is discarded; nothing it touched
//     ever reached shared state, so accuracy and convergence are unaffected.
//
// The speedup comes from the repair being far cheaper than the full solve it
// replaces on the critical path.
#include "wavepipe/driver.hpp"

#include <algorithm>

#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"

namespace wavepipe::pipeline {

std::vector<PipelineDriver::HelperTask> PipelineDriver::PlanSpeculativeChain(
    int depth, int first_slot, double t1, double h1, engine::HistoryWindow base_window) {
  std::vector<HelperTask> chain;
  if (depth <= 0) return chain;
  // One predictor candidate per chain; the policy scores its entries'
  // outcomes to keep the online hit-rate ranking fresh (fixed mode always
  // answers kPolynomial).
  const SpecPredictor predictor = policy_.ChoosePredictor();
  engine::HistoryWindow window = std::move(base_window);
  double t_prev = t1;
  // Follow the controller's realized step-growth trajectory: during a
  // cap-limited ramp the serial loop doubles every step, and a chain that
  // reused h1 flat would cover less time per round than serial does per
  // solve.  In steady state the factor is ~1 and this degenerates to h1.
  double h_next = h1 * last_growth_factor_;
  const int order = engine::MethodOrder(options_.sim.method);
  const int predict_points = policy_.PredictorPoints(predictor, order);
  for (int d = 0; d < depth; ++d) {
    // Fabricate the predicted predecessor and extend the window with it.
    engine::SolutionPointPtr predicted =
        engine::PredictPoint(window, predict_points, t_prev);
    window.push_back(predicted);
    if (window.size() > 4) window.erase(window.begin());

    Clip clip_next = ClipStep(t_prev, std::min(h_next, limits_.hmax));
    if (clip_next.hit_stop) break;
    bool corner_landing = false;
    if (clip_next.hit_breakpoint) {
      // The clipped step lands exactly on a source corner.  Only the
      // event-aware candidate keeps it: the corner point is solved like the
      // serial loop would solve it, and accepting it performs the breakpoint
      // restart one round early.  Extrapolating PAST a corner is poison, so
      // the chain always ends here.
      if (predictor != SpecPredictor::kEvent) break;
      corner_landing = true;
      policy_.NoteEventSnap();
    } else if (predictor == SpecPredictor::kEvent) {
      // Zero crossings: pull the placement back onto a predicted waveform
      // sign change inside the step (corners are handled by the clipper).
      const SpecEventSnap snap = policy_.PredictEvent(
          window, circuit_.num_nodes(), {}, 0, t_prev, clip_next.t_new, limits_.hmin);
      if (snap.snapped) clip_next.t_new = snap.time;
    }
    HelperTask task;
    task.slot = first_slot + d;
    task.time = clip_next.t_new;
    task.window = window;
    task.predicted_predecessor = predicted;
    task.deps = DepsOf(window);  // predicted points carry no ledger id
    task.predictor = predictor;
    task.hit_breakpoint = corner_landing;
    chain.push_back(std::move(task));
    if (corner_landing) break;
    t_prev = clip_next.t_new;
    h_next *= last_growth_factor_;
  }
  return chain;
}

void PipelineDriver::DiscardSpeculativeChain(std::span<HelperTask> chain, std::size_t from) {
  for (std::size_t d = from; d < chain.size(); ++d) {
    WP_TINSTANT("sched", "speculation_discarded");
    result_.sched.speculative_solves += 1;
    result_.sched.speculative_discarded += 1;
    CountSchemeSpeculation(/*accepted=*/false);
    // Unvalidated tail entries feed the policy's cost averages but not the
    // predictor hit rates (their predictions were never compared to truth).
    policy_.OnEntryOutcome(chain[d].predictor, /*accepted=*/false,
                           chain[d].result.newton.iterations, /*scored=*/false);
    Record(SolveKind::kSpeculative, chain[d].result, std::move(chain[d].deps),
           /*useful=*/false);
  }
}

void PipelineDriver::ValidateSpeculativeChain(std::span<HelperTask> chain) {
  const engine::StepControlParams params =
      ParamsWithCap(engine::MethodOrder(options_.sim.method), options_.sim.step_growth);

  int accepted_entries = 0;
  for (std::size_t d = 0; d < chain.size(); ++d) {
    HelperTask& task = chain[d];
    engine::StepSolveResult& spec = task.result;
    result_.sched.speculative_solves += 1;

    const engine::SolutionPointPtr truth = history_.newest();  // real predecessor
    double prediction_error = engine::SolutionWrmsDistance(
        task.predicted_predecessor->x, truth->x, params);
    // Fault site: a forced mispredict proves the adaptive controller degrades
    // depth instead of thrashing when every prediction goes bad.
    if (WP_FAULT_POINT("spec.mispredict")) {
      prediction_error = 2.0 * options_.fwp_prediction_tol;
    }

    bool chain_continues = false;
    bool entry_accepted = false;
    if (!spec.converged) {
      WP_DEBUG << "fwp: speculative solve at t=" << task.time << " failed Newton";
      Record(SolveKind::kSpeculative, spec, std::move(task.deps), /*useful=*/false);
    } else if (prediction_error > options_.fwp_prediction_tol ||
               (prediction_error > options_.fwp_direct_tol && !RepairWorthwhile())) {
      // Too far off to use — or only repairable, and repairs currently cost
      // as much as the cold solve they would replace (see RepairWorthwhile).
      WP_DEBUG << "fwp: discarding speculation at t=" << task.time
               << " (prediction error " << prediction_error << ")";
      Record(SolveKind::kSpeculative, spec, std::move(task.deps), /*useful=*/false);
    } else if (prediction_error <= options_.fwp_direct_tol) {
      // Prediction within solver tolerance: the speculative solution differs
      // from the exact one by the same order as the Newton/LTE error already
      // admitted at every point — accept it directly.  Nothing lands on the
      // critical path; this is forward pipelining's payoff case.
      //
      // One repair IS mandatory though: qdot.  The speculative solve derived
      // dq/dt from the PREDICTED history; the mismatch against the true
      // history is amplified by a0 ~ 1/h, and the trapezoidal rule carries
      // qdot forward undamped — publishing it as-is rings the integrator
      // into a permanent hmin death spiral.  Recompute qdot consistently
      // against the true history (O(states), no solve).
      //
      // When the circuit carries history-COUPLED states (a ReducedSubnet's
      // interior voltages and absorbed-capacitor charges), q itself needs
      // the same treatment: those states are functions of the state history,
      // not of x, so their prediction error would feed state→state without
      // ever crossing the validated solution and the trapezoidal rule rings
      // it up unbounded.  RefreshPointStates re-derives q AND qdot with one
      // device-eval pass (no solve) on the idle contexts_[0].  Gated on the
      // circuit flag so ordinary runs keep their published states (recorded
      // one Newton iterate behind x, like the serial engine's) bit-for-bit.
      const engine::HistoryWindow true_window = history_.Window(4);
      engine::IntegrationPlan true_plan;
      if (circuit_.has_history_coupled_states()) {
        true_plan = engine::RefreshPointStates(*contexts_[0], true_window,
                                               spec.plan.effective_method,
                                               spec.point, options_.sim);
      } else {
        std::vector<double> hist(spec.point->q.size());
        true_plan = engine::PlanIntegration(spec.plan.effective_method, task.time,
                                            true_window, hist);
        engine::ComputeQdot(true_plan, spec.point->q, hist, spec.point->qdot);
      }

      // Assess against the TRUE-window predictor (exactly what the serial
      // controller would have used), not the speculative one built over
      // predicted history — the latter is pessimistic and would shrink the
      // next step for no physical reason.
      const double h_d = task.time - truth->time;
      std::vector<double> true_prediction(spec.point->x.size());
      engine::PredictSolution(true_window, true_plan.order + 1, task.time,
                              true_prediction);
      const engine::StepAssessment assess = engine::AssessStep(
          spec.point->x, true_prediction, h_d, /*lte_active=*/true, params);
      // Direct acceptance demands 2x LTE headroom (error <= 0.5, not merely
      // <= 1): the solution noise it admits is h-INDEPENDENT, and without
      // headroom the step controller can be pinned at its error floor — h
      // collapses to hmin and every force-accepted sliver re-seeds the
      // floor.  With the margin, every direct-accepted step's h_next grows,
      // so the collapse is structurally impossible.
      if (assess.accept && assess.error <= 0.5) {
        const int spec_id =
            Record(SolveKind::kSpeculative, spec, std::move(task.deps), /*useful=*/true);
        AcceptPoint(spec.point, spec_id, /*leading=*/true);
        OnLeadingAccepted(assess, task.hit_breakpoint, h_d,
                          /*update_step_control=*/false);
        result_.sched.speculative_accepted += 1;
        result_.sched.speculative_direct += 1;
        ++accepted_entries;
        entry_accepted = true;
        if (task.hit_breakpoint) {
          // Event-snapped corner point: OnLeadingAccepted just performed the
          // breakpoint restart (h_ = h0) and the chain ends here by
          // construction.
          CountSchemeSpeculation(/*accepted=*/true);
          policy_.OnEntryOutcome(task.predictor, /*accepted=*/true,
                                 spec.newton.iterations, /*scored=*/true);
          DiscardSpeculativeChain(chain, d + 1);
          policy_.OnChainValidated(static_cast<int>(chain.size()), accepted_entries);
          return;
        }
        // The suggested next step trails the accepted spec point; scale it
        // along the clean growth trajectory so the next lead continues from
        // here rather than re-stepping over covered time.
        h_ = std::clamp(h_d * last_growth_factor_, limits_.hmin, limits_.hmax);
        chain_continues = true;
      } else {
        // The speculative step overreached; drop it and break the chain.
        // Deliberately NOT OnLteRejection: the leading trajectory's h_ was
        // set by the last accepted step's controller and a failed
        // opportunistic extra must not shrink it.
        Record(SolveKind::kSpeculative, spec, std::move(task.deps), /*useful=*/false);
        result_.stats.steps_rejected_lte += 1;
      }
    } else {
      // Prediction close but not tolerance-tight: record the overlapped
      // work, then repair — one hot-started solve against the true history.
      const int spec_id =
          Record(SolveKind::kSpeculative, spec, std::move(task.deps), /*useful=*/true);

      const engine::HistoryWindow true_window = history_.Window(4);
      std::vector<int> repair_deps = DepsOf(true_window);
      repair_deps.push_back(spec_id);
      engine::StepSolveResult repair =
          SolveRound({true_window, task.time, /*restart=*/false, spec.point->x});
      result_.sched.repair_solves += 1;
      result_.sched.repair_newton_iterations +=
          static_cast<std::uint64_t>(repair.newton.iterations);

      if (repair.converged) {
        const double h_d = task.time - truth->time;
        const engine::StepAssessment assess = engine::AssessStep(
            repair.point->x, repair.predicted, h_d, /*lte_active=*/true, params);
        if (assess.accept) {
          const int repair_id =
              Record(SolveKind::kRepair, repair, std::move(repair_deps), /*useful=*/true);
          AcceptPoint(repair.point, repair_id, /*leading=*/true);
          OnLeadingAccepted(assess, task.hit_breakpoint, h_d);
          result_.sched.speculative_accepted += 1;
          ++accepted_entries;
          entry_accepted = true;
          if (task.hit_breakpoint) {
            CountSchemeSpeculation(/*accepted=*/true);
            policy_.OnEntryOutcome(task.predictor, /*accepted=*/true,
                                   spec.newton.iterations, /*scored=*/true);
            DiscardSpeculativeChain(chain, d + 1);
            policy_.OnChainValidated(static_cast<int>(chain.size()), accepted_entries);
            return;
          }
          chain_continues = true;
        } else {
          // Same reasoning as the direct path: chain break, no h_ penalty.
          Record(SolveKind::kRejected, repair, std::move(repair_deps), /*useful=*/false);
          result_.stats.steps_rejected_lte += 1;
        }
      } else {
        Record(SolveKind::kRejected, repair, std::move(repair_deps), /*useful=*/false);
      }
    }

    CountSchemeSpeculation(entry_accepted);
    policy_.OnEntryOutcome(task.predictor, entry_accepted, spec.newton.iterations,
                           /*scored=*/true);
    if (!chain_continues) {
      WP_TINSTANT("sched", "speculation_discarded");
      result_.sched.speculative_discarded += 1;
      DiscardSpeculativeChain(chain, d + 1);
      policy_.OnChainValidated(static_cast<int>(chain.size()), accepted_entries);
      return;
    }
  }
  policy_.OnChainValidated(static_cast<int>(chain.size()), accepted_entries);
}

void PipelineDriver::RunRoundForward() {
  // Speculation needs a trustworthy extrapolation basis.
  if (restart_ || steps_since_restart_ < 1 || history_.size() < 2) {
    RunRoundSerial();
    return;
  }

  const double t_now = history_.newest_time();
  h_ = std::clamp(h_, limits_.hmin, limits_.hmax);
  const Clip clip1 = ClipStep(t_now, h_);
  if (clip1.hit_breakpoint || clip1.hit_stop) {
    // Never speculate across a waveform corner or the stop time.
    RunRoundSerial();
    return;
  }
  const double h1 = clip1.t_new - t_now;

  // ---- one fork-join: the lead on this thread, the chain on the workers ------
  // A worker exception folds into that entry's failed solve (SolveRound);
  // the rest of the chain still runs to the join.
  const engine::HistoryWindow base_window = history_.Window(4);
  std::vector<int> lead_deps = DepsOf(base_window);
  const int depth = policy_.ChooseChainDepth(std::min(options_.threads - 1, 3));
  std::vector<HelperTask> chain =
      PlanSpeculativeChain(depth, /*first_slot=*/1, clip1.t_new, h1, base_window);
  engine::StepSolveResult lead =
      SolveRound({base_window, clip1.t_new, /*restart=*/false}, {}, chain);

  if (!lead.converged) {
    DiscardSpeculativeChain(chain, 0);
    policy_.OnChainValidated(static_cast<int>(chain.size()), 0);
    OnNewtonFailure(h1, lead, std::move(lead_deps));
    return;
  }

  const engine::StepControlParams params =
      ParamsWithCap(lead.plan.order, options_.sim.step_growth);
  const engine::StepAssessment lead_assess =
      engine::AssessStep(lead.point->x, lead.predicted, h1, /*lte_active=*/true, params);
  if (!lead_assess.accept && h1 > limits_.hmin * (1.0 + 1e-6)) {
    DiscardSpeculativeChain(chain, 0);
    policy_.OnChainValidated(static_cast<int>(chain.size()), 0);
    Record(SolveKind::kRejected, lead, std::move(lead_deps), /*useful=*/false);
    OnLteRejection(lead_assess);
    return;
  }

  const int lead_id =
      Record(SolveKind::kLeading, lead, std::move(lead_deps), /*useful=*/true);
  AcceptPoint(lead.point, lead_id, /*leading=*/true);
  OnLeadingAccepted(lead_assess, /*hit_breakpoint=*/false, h1);

  ValidateSpeculativeChain(chain);
}

}  // namespace wavepipe::pipeline

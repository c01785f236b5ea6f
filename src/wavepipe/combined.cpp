// Combined scheme: one backward helper (raises the leading growth cap) plus
// forward speculation with the remaining threads — the paper's "both
// embodiments at once" configuration for 3+ cores.
#include "wavepipe/driver.hpp"

#include <algorithm>

namespace wavepipe::pipeline {

void PipelineDriver::RunRoundCombined() {
  int nb = BackwardPointCount();  // 1 when eligible
  if (restart_ || steps_since_restart_ < 1 || history_.size() < 2) {
    RunRoundSerial();
    return;
  }
  // Adaptive helper assignment: when speculation has demonstrably not been
  // paying (low acceptance over a meaningful sample), the forward helper is
  // worth more as a second backward point — backward solves are never
  // speculative and always inform the step controller.  This keeps the
  // combined scheme >= max(bwp, fwp) instead of diluting the backward gains
  // with unproductive speculation.
  if (nb > 0 && options_.threads >= 3 && result_.sched.speculative_solves > 64 &&
      result_.sched.speculation_acceptance() < 0.10) {
    nb = std::min({2, options_.threads - 1,
                   static_cast<int>(options_.bwp_growth_caps.size())});
  }
  // Adaptive mode replaces the heuristic above with the policy's EWMA-based
  // helper conversion (fixed mode returns nb unchanged).  nb == 0 means the
  // trailing interval is ineligible this round — the policy never overrides
  // that.
  if (nb > 0) {
    nb = policy_.ChooseBackwardCount(
        nb, std::min(options_.threads - 1,
                     static_cast<int>(options_.bwp_growth_caps.size())));
  }

  const double t_now = history_.newest_time();
  h_ = std::clamp(h_, limits_.hmin, limits_.hmax);
  const Clip clip = ClipStep(t_now, h_);
  if (clip.hit_breakpoint || clip.hit_stop) {
    // Corners ahead: no speculation, but backward pipelining still applies.
    RunRoundBackward();
    return;
  }
  const double h = clip.t_new - t_now;
  const double cap = BwpGrowthCap(nb);

  // ---- one fork-join: the lead here, backward helper + speculative chain ----
  const engine::HistoryWindow lead_window = history_.Window(4);
  std::vector<int> lead_deps = DepsOf(lead_window);
  std::vector<HelperTask> backward = PlanBackwardTasks(nb, /*first_slot=*/1);
  const int depth = policy_.ChooseChainDepth(std::max(0, options_.threads - 1 - nb));
  std::vector<HelperTask> chain = PlanSpeculativeChain(
      depth, /*first_slot=*/1 + nb, clip.t_new, h, lead_window);
  engine::StepSolveResult lead =
      SolveRound({lead_window, clip.t_new, /*restart=*/false}, backward, chain);

  PublishBackward(backward);

  if (!lead.converged) {
    DiscardSpeculativeChain(chain, 0);
    policy_.OnChainValidated(static_cast<int>(chain.size()), 0);
    OnNewtonFailure(h, lead, std::move(lead_deps));
    return;
  }

  // Dense re-assessment with the raised cap, as in RunRoundBackward().
  engine::HistoryWindow dense;
  for (const auto& point : history_.Window(4)) {
    if (point->time < clip.t_new) dense.push_back(point);
  }
  std::vector<double> dense_prediction(lead.point->x.size());
  engine::PredictSolution(dense, lead.plan.order + 1, clip.t_new, dense_prediction);

  const engine::StepControlParams params = ParamsWithCap(lead.plan.order, cap);
  const engine::StepAssessment assess = engine::AssessStep(
      lead.point->x, dense_prediction, h, /*lte_active=*/true, params);

  if (!assess.accept && h > limits_.hmin * (1.0 + 1e-6)) {
    DiscardSpeculativeChain(chain, 0);
    policy_.OnChainValidated(static_cast<int>(chain.size()), 0);
    Record(SolveKind::kRejected, lead, std::move(lead_deps), /*useful=*/false);
    OnLteRejection(assess);
    return;
  }

  const int id = Record(SolveKind::kLeading, lead, std::move(lead_deps), /*useful=*/true);
  AcceptPoint(lead.point, id, /*leading=*/true);
  OnLeadingAccepted(assess, /*hit_breakpoint=*/false, h);

  ValidateSpeculativeChain(chain);
}

}  // namespace wavepipe::pipeline

// Serial scheme: the conventional SPICE loop expressed as one-task rounds.
// Exists so the baseline produces the same ledger/bookkeeping as the
// pipelined schemes (the speedup experiments replay both).
#include "wavepipe/driver.hpp"

#include <algorithm>

namespace wavepipe::pipeline {

void PipelineDriver::RunRoundSerial() {
  const double t_now = history_.newest_time();
  h_ = std::clamp(h_, limits_.hmin, limits_.hmax);
  const Clip clip = ClipStep(t_now, h_);
  const double h = clip.t_new - t_now;

  const engine::HistoryWindow window = history_.Window(4);
  std::vector<int> deps = DepsOf(window);
  const engine::StepSolveResult solve = SolveRound({window, clip.t_new, restart_});

  if (!solve.converged) {
    OnNewtonFailure(h, solve, std::move(deps));
    return;
  }

  const bool lte_active = !restart_ && steps_since_restart_ >= 1 && window.size() >= 2;
  const engine::StepControlParams params =
      ParamsWithCap(solve.plan.order, options_.sim.step_growth);
  const engine::StepAssessment assess =
      engine::AssessStep(solve.point->x, solve.predicted, h, lte_active, params);

  if (!assess.accept && h > limits_.hmin * (1.0 + 1e-6)) {
    Record(SolveKind::kRejected, solve, std::move(deps), /*useful=*/false);
    OnLteRejection(assess, h);
    return;
  }

  const int id = Record(SolveKind::kLeading, solve, std::move(deps), /*useful=*/true);
  AcceptPoint(solve.point, id, /*leading=*/true);
  OnLeadingAccepted(assess, clip.hit_breakpoint, options_.sim.step_growth, h);
}

}  // namespace wavepipe::pipeline

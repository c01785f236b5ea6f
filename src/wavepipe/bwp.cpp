// Backward pipelining.
//
// While the driver thread solves t_new = t_n + h (with h allowed up to the
// RAISED growth cap), helper threads concurrently solve full-accuracy
// intermediate points inside the trailing interval (t_{n-1}, t_n).  All
// solves depend only on already-accepted history, so they are independent
// tasks.  When everything joins, the leading candidate is assessed against a
// predictor built over the DENSIFIED history (the backward points sit right
// behind the leading edge), which is what justifies trusting the LTE
// estimate across the larger step.  Acceptance is still the unchanged LTE
// test — backward pipelining can only make the controller better informed,
// never bypass it.
#include "wavepipe/driver.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace wavepipe::pipeline {

std::vector<PipelineDriver::HelperTask> PipelineDriver::PlanBackwardTasks(
    int count, int first_slot) {
  std::vector<HelperTask> tasks;
  if (count <= 0) return tasks;
  const engine::SolutionPointPtr prev = history_.FromNewest(1);
  const double t_now = history_.newest_time();
  const double interval = t_now - prev->time;

  int slot = first_slot;
  for (int i = 1; i <= count; ++i) {
    // The policy places a single helper (fixed mode answers the static
    // bwp_backward_fraction); multiple helpers stay evenly spaced.
    const double fraction = (count == 1) ? policy_.ChooseBackwardFraction()
                                         : static_cast<double>(i) / (count + 1);
    const double t_b = prev->time + fraction * interval;
    // Degenerate slivers are numerically useless; skip them.
    if (t_b - prev->time <= limits_.hmin || t_now - t_b <= limits_.hmin) continue;

    // A backward solve may only see history strictly before its own time.
    engine::HistoryWindow window;
    for (const auto& point : history_.Window(5)) {
      if (point->time < t_b - limits_.hmin) window.push_back(point);
    }
    if (window.empty()) continue;

    HelperTask task;
    task.slot = slot++;
    task.time = t_b;
    task.deps = DepsOf(window);
    task.window = std::move(window);
    tasks.push_back(std::move(task));
  }
  return tasks;
}

void PipelineDriver::PublishBackward(std::span<HelperTask> tasks) {
  for (auto& task : tasks) {
    engine::StepSolveResult& back = task.result;
    result_.sched.backward_solves += 1;
    CountSchemeBackward();
    if (!back.converged) {
      WP_DEBUG << "bwp: backward solve at t=" << task.time << " failed Newton; dropped";
      Record(SolveKind::kRejected, back, std::move(task.deps), /*useful=*/false);
      continue;
    }
    back.point->auxiliary = true;
    const int id =
        Record(SolveKind::kBackward, back, std::move(task.deps), /*useful=*/true);
    AcceptPoint(back.point, id, /*leading=*/false);
  }
}

void PipelineDriver::RunRoundBackward() {
  const int nb = BackwardPointCount();
  if (nb == 0) {
    RunRoundSerial();
    return;
  }
  const double cap = BwpGrowthCap(nb);
  const double t_now = history_.newest_time();

  h_ = std::clamp(h_, limits_.hmin, limits_.hmax);
  const Clip clip = ClipStep(t_now, h_);
  const double h = clip.t_new - t_now;

  // One fork-join: the leading point on this thread, the backward points on
  // the workers.
  const engine::HistoryWindow lead_window = history_.Window(4);
  std::vector<int> lead_deps = DepsOf(lead_window);
  std::vector<HelperTask> backward = PlanBackwardTasks(nb, /*first_slot=*/1);
  engine::StepSolveResult lead =
      SolveRound({lead_window, clip.t_new, /*restart=*/false}, backward);

  // Publish converged backward points before assessing the leading
  // candidate: the dense predictor below must see them.  They are published
  // even when the lead failed.
  PublishBackward(backward);

  if (!lead.converged) {
    OnNewtonFailure(h, lead, std::move(lead_deps));
    return;
  }

  // Re-assess against the densified history: the newest (order + 1) points
  // now include the backward points right behind the leading edge.
  engine::HistoryWindow dense;
  for (const auto& point : history_.Window(4)) {
    if (point->time < clip.t_new) dense.push_back(point);
  }
  std::vector<double> dense_prediction(lead.point->x.size());
  engine::PredictSolution(dense, lead.plan.order + 1, clip.t_new, dense_prediction);

  const engine::StepControlParams params = ParamsWithCap(lead.plan.order, cap);
  const engine::StepAssessment assess =
      engine::AssessStep(lead.point->x, dense_prediction, h, /*lte_active=*/true, params);

  if (!assess.accept && h > limits_.hmin * (1.0 + 1e-6)) {
    Record(SolveKind::kRejected, lead, std::move(lead_deps), /*useful=*/false);
    OnLteRejection(assess);
    return;
  }

  const int id = Record(SolveKind::kLeading, lead, std::move(lead_deps), /*useful=*/true);
  AcceptPoint(lead.point, id, /*leading=*/true);
  OnLeadingAccepted(assess, clip.hit_breakpoint, h);
}

}  // namespace wavepipe::pipeline

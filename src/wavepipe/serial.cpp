// Serial scheme: the conventional SPICE loop as one-solve rounds, and the two
// engines that are nothing but this scheme on one context —
// engine::RunTransientSerial (the baseline every experiment compares
// against) and parallel::RunTransientFineGrained (the same loop with device
// evaluation and LU split across an intra-solve pool).  Both return the
// driver's result; their checkpoints keep their own tags.
#include "wavepipe/driver.hpp"

#include <algorithm>
#include <memory>

#include "parallel/fine_grained.hpp"
#include "util/telemetry.hpp"

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
  const engine::StepAssessment assess = [&] {
    WP_TSPAN("lte", "assess_step");
    return engine::AssessStep(solve.point->x, solve.predicted, h, lte_active, params);
  }();

  if (!assess.accept && h > limits_.hmin * (1.0 + 1e-6)) {
    Record(SolveKind::kRejected, solve, std::move(deps), /*useful=*/false);
    OnLteRejection(assess);
    return;
  }

  const int id = Record(SolveKind::kLeading, solve, std::move(deps), /*useful=*/true);
  AcceptPoint(solve.point, id, /*leading=*/true);
  OnLeadingAccepted(assess, clip.hit_breakpoint, h);
}

namespace {

engine::TransientResult RunSingleContext(const engine::Circuit& circuit,
                                         const engine::MnaStructure& structure,
                                         const engine::TransientSpec& spec,
                                         WavePipeOptions options,
                                         SingleContextEngine engine) {
  options.scheme = Scheme::kSerial;
  return PipelineDriver(circuit, structure, spec, options, &engine).Run();
}

}  // namespace
}  // namespace wavepipe::pipeline

namespace wavepipe::engine {

TransientResult RunTransientSerial(const Circuit& circuit, const MnaStructure& structure,
                                   const TransientSpec& spec, const SimOptions& options) {
  pipeline::WavePipeOptions serial;
  serial.sim = options;
  return pipeline::RunSingleContext(circuit, structure, spec, serial, {"serial"});
}

}  // namespace wavepipe::engine

namespace wavepipe::parallel {

FineGrainedResult RunTransientFineGrained(const engine::Circuit& circuit,
                                          const engine::MnaStructure& structure,
                                          const engine::TransientSpec& spec,
                                          const FineGrainedOptions& options) {
  // One pool serves both assembly and level-scheduled LU: the two phases
  // alternate within a Newton iteration, never overlap.  The solving thread
  // runs one share of every fork-join.
  pipeline::SingleContextEngine engine{"fine-grained"};
  engine.pool = util::ThreadPool::ForThreads(std::max(options.threads, options.factor_threads));
  // kAuto with one participant would pick the one-chunk reduction assembler:
  // the serial device loop's bits at a higher cost, so attach none.
  if (options.assembly != AssemblyMode::kAuto ||
      util::ThreadPool::Participants(engine.pool.get()) > 1) {
    engine.assembler = MakeAssembler(options.assembly, circuit, structure, options.threads,
                                     options.coloring, engine.pool.get());
  }
  pipeline::WavePipeOptions fine;
  fine.factor_threads = options.factor_threads;
  fine.sim = options.sim;
  return pipeline::RunSingleContext(circuit, structure, spec, fine, std::move(engine));
}

}  // namespace wavepipe::parallel

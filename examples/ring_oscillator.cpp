// Ring oscillator: the canonical analog/autonomous benchmark from the paper's
// domain.  Simulates an N-stage CMOS ring with every WavePipe scheme,
// measures the oscillation period, and reports the pipeline scheduling
// statistics side by side.
//
//   ./ring_oscillator [stages=9] [threads=3]
#include <cmath>
#include <cstdio>
#include <iostream>
#include <cstdlib>
#include <vector>

#include "circuits/generators.hpp"
#include "engine/transient.hpp"
#include "util/table.hpp"
#include "wavepipe/virtual_pipeline.hpp"
#include "wavepipe/wavepipe.hpp"

using namespace wavepipe;

namespace {

/// Oscillation period from mid-rail crossings of the first probe.
double MeasurePeriod(const engine::Trace& trace, double vdd) {
  std::vector<double> rising;
  const double mid = vdd / 2;
  for (std::size_t i = 1; i < trace.num_samples(); ++i) {
    const double a = trace.value(i - 1, 0) - mid;
    const double b = trace.value(i, 0) - mid;
    if (a < 0 && b >= 0) {
      const double t0 = trace.time(i - 1), t1 = trace.time(i);
      rising.push_back(t0 + (t1 - t0) * (-a) / (b - a));
    }
  }
  if (rising.size() < 3) return 0.0;
  // Average over the later cycles (startup transient excluded).
  const std::size_t begin = rising.size() / 2;
  return (rising.back() - rising[begin]) / static_cast<double>(rising.size() - 1 - begin);
}

}  // namespace

int main(int argc, char** argv) {
  const int stages = argc > 1 ? std::atoi(argv[1]) : 9;
  const int threads = argc > 2 ? std::atoi(argv[2]) : 3;
  const double vdd = 2.5;

  auto gen = circuits::MakeRingOscillator(stages, vdd);
  engine::MnaStructure mna(*gen.circuit);
  std::printf("%d-stage CMOS ring oscillator: %d unknowns, %zu devices, window %.3g s\n\n",
              stages, gen.circuit->num_unknowns(), gen.circuit->num_devices(),
              gen.spec.tstop);

  util::Table table({"scheme", "threads", "rounds", "steps", "newton iters", "period (ps)",
                     "max dev (mV)", "model speedup"});

  engine::Trace serial_trace;
  double serial_makespan = 0.0;
  for (auto scheme : {pipeline::Scheme::kSerial, pipeline::Scheme::kBackward,
                      pipeline::Scheme::kForward, pipeline::Scheme::kCombined}) {
    pipeline::WavePipeOptions options;
    options.scheme = scheme;
    options.threads = threads;
    const auto res = pipeline::RunWavePipe(*gen.circuit, mna, gen.spec, options);
    const int workers = scheme == pipeline::Scheme::kSerial ? 1 : options.threads;
    const auto replay = pipeline::ReplayOnWorkers(res.ledger, workers);

    if (scheme == pipeline::Scheme::kSerial) {
      serial_trace = res.trace;
      serial_makespan = replay.makespan_seconds;
    }
    const double deviation =
        engine::Trace::MaxDeviationAll(serial_trace, res.trace) * 1e3;
    const double period_ps = MeasurePeriod(res.trace, vdd) * 1e12;
    table.AddRow({pipeline::SchemeName(scheme), util::Table::Cell(workers),
                  util::Table::Cell(res.sched.rounds),
                  util::Table::Cell(res.stats.steps_accepted),
                  util::Table::Cell(static_cast<std::size_t>(res.stats.newton_iterations)),
                  util::Table::Cell(period_ps, 4), util::Table::Cell(deviation, 3),
                  util::Table::Cell(serial_makespan / replay.makespan_seconds, 3)});
  }
  table.Print(std::cout);

  std::printf("\nwaveform (serial, stage-0 output):\n");
  util::AsciiChart chart(72, 12);
  chart.AddSeries("v(s0)", serial_trace.Series(0));
  std::printf("%s", chart.ToString().c_str());
  std::printf("\n'model speedup' = serial ledger makespan / scheme makespan on %d virtual "
              "workers\n(thread-CPU cost replay, a model; see DESIGN.md \"Environment "
              "substitutions\").\n",
              threads);
  return 0;
}

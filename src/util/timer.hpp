// Wall-clock timer used for solve-cost accounting and benchmark reporting.
#pragma once

#include <chrono>

namespace wavepipe::util {

/// Monotonic wall-clock stopwatch.  Started on construction.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double Millis() const { return Seconds() * 1e3; }
  double Micros() const { return Seconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Per-thread CPU-time stopwatch (CLOCK_THREAD_CPUTIME_ID).
///
/// The WavePipe ledger records the cost of each nonlinear solve with this
/// clock, NOT wall time: when more tasks run than free cores exist,
/// concurrently scheduled tasks time-share a core and each would see the
/// others' slices in its wall time.  Thread CPU time
/// is exactly the single-thread cost the virtual pipeline replay needs.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() : start_(Now()) {}
  void Reset() { start_ = Now(); }
  double Seconds() const { return Now() - start_; }

 private:
  static double Now();
  double start_;
};

}  // namespace wavepipe::util

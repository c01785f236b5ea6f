// Host speed probe: a fixed, library-independent kernel whose run time
// tracks how fast the host runs this process right now.
//
// On a shared host the speed of a vCPU drifts by 10-20 % over minutes, and
// every time the benchmark measures drifts with it.  The probe runs between
// the measured calls, and the benchmark scales its reported times by
// (reference probe time / this run's probe time), which cancels the drift.
// The kernel mixes the kinds of work the library does: a small dense LU
// (floating point on cached data), a dependent gather over a 3 MiB table
// (cache and memory latency, as in sparse factorization) and exp() calls
// (device models).  It never calls the library, so no change to the library
// moves it.
#pragma once

namespace perfbench {

/// Runs the probe kernel once; returns its wall time in seconds.
double HostProbeSeconds();

}  // namespace perfbench

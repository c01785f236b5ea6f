// Conventional fine-grained parallel SPICE: the baseline WavePipe is
// positioned against in the paper.
//
// Fine-grained is not a separate engine.  It is engine::RunTransientSerial —
// the one serial step loop and the one Newton loop (engine::SolveNewton) —
// with an intra-solve pool attached to its SolveContext (engine::IntraSolve):
// device model evaluation is distributed across worker threads, and LU
// refactorization / triangular solves optionally run level-scheduled on the
// same workers, while the time axis and the Newton iteration stay strictly
// sequential.  Its scaling is therefore Amdahl-limited by the matrix
// solution — the motivation the paper opens with, and the effect the fig-D
// bench quantifies.  Step control, rescue ladder, bypass safety valve,
// checkpoints, budgets, watchdog and breakers are the serial loop's own.
//
// Two assembly strategies sit behind the pool (see parallel/coloring.hpp):
//
//  * reduction — each worker accumulates into a private Jacobian/RHS copy,
//    merged serially afterwards (the historical baseline; the merge is the
//    O(nnz x threads) tax).
//  * colored   — conflict-free device coloring stamps the shared matrix
//    directly, no private copies, one barrier per color.
//
// The default (kAuto) picks per circuit with a structure-only cost model;
// tests force either mode explicitly.
#pragma once

#include "engine/circuit.hpp"
#include "engine/mna.hpp"
#include "engine/options.hpp"
#include "engine/transient.hpp"
#include "parallel/coloring.hpp"

namespace wavepipe::parallel {

struct FineGrainedOptions {
  int threads = 2;
  /// Workers for level-scheduled LU refactorization / triangular solves
  /// inside each Newton iteration (see sparse/lu.hpp).  0 = serial LU (the
  /// historical behavior); >= 2 enables the parallel kernels, sharing ONE
  /// worker pool with assembly — assembly and factorization never overlap
  /// within an iteration, so max(threads, factor_threads) threads work: the
  /// pool's workers plus the loop's own thread.
  int factor_threads = 0;
  /// Assembly strategy; kAuto lets the cost model choose colored vs
  /// reduction from the conflict graph.
  AssemblyMode assembly = AssemblyMode::kAuto;
  /// Coloring heuristic when the colored path is used.
  ColoringOptions coloring;
  engine::SimOptions sim;
};

using PhaseBreakdown = engine::PhaseBreakdown;
using FineGrainedResult = engine::TransientResult;

/// Runs the fine-grained-parallel transient: builds the worker pool and the
/// assembler, then runs engine::RunTransientSerial with them attached.  With
/// one thread and serial LU it is the serial engine, bit for bit.
FineGrainedResult RunTransientFineGrained(const engine::Circuit& circuit,
                                          const engine::MnaStructure& structure,
                                          const engine::TransientSpec& spec,
                                          const FineGrainedOptions& options);

/// Amdahl-style runtime model for k threads given a measured breakdown:
/// model eval divides by k, the reduction grows with (k-1) private copies,
/// LU and control stay serial.  Returns the modeled speedup over 1 thread.
double ModelFineGrainedSpeedup(const PhaseBreakdown& phases, int threads);

}  // namespace wavepipe::parallel

// Bordered-block-diagonal (BBD) solve path for domain-decomposed circuits.
//
// A vertex-separator partition of the MNA unknowns reorders the system into
//
//        [ A_00          F_0 ] [x_0]   [b_0]
//        [      A_11     F_1 ] [x_1] = [b_1]          A_kk: piece interiors
//        [           ..   .. ] [ ..]   [ ..]          F_k/E_k: coupling
//        [ E_0  E_1  ..   C  ] [x_c]   [b_c]          C: interface block
//
// with NO coupling between the interiors of different pieces (the separator
// property the partitioner guarantees).  Factorization then decomposes into
// embarrassingly parallel per-piece LU factors plus one small Schur
// complement on the interface,
//
//        S = C - sum_k E_k · A_kk^{-1} · F_k,
//
// and each solve into two parallel per-piece triangular sweeps around one
// interface solve:
//
//        z_k = A_kk^{-1} b_k                (parallel over pieces)
//        g   = b_c - sum_k E_k z_k          (small, serial)
//        x_c = S^{-1} g                     (small, serial)
//        x_k = A_kk^{-1} (b_k - F_k x_c)    (parallel over pieces)
//
// The back-substitution deliberately re-solves against b_k - F_k x_c instead
// of storing the dense maps W_k = A_kk^{-1} F_k: one extra per-piece
// triangular sweep per solve buys O(n_k x n_if) less memory per piece, which
// is what makes 100k-unknown grids fit.
//
// Every piece runs the existing SparseLu kernels (with a shared
// OrderingCache so equal-stripe patterns are ordered once, and a run's
// contexts order each piece pattern once between them); the pieces and
// the Schur column assembly execute across the caller's ThreadPool.  Results
// are deterministic: each piece/column computation is a pure function of its
// inputs and all cross-piece accumulations run in fixed piece order.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "sparse/csc.hpp"
#include "sparse/lu.hpp"
#include "sparse/ordering_cache.hpp"

namespace wavepipe::util {
class ThreadPool;
namespace telemetry {
class CounterRegistry;
}
}  // namespace wavepipe::util

namespace wavepipe::sparse {

/// Vertex-separator partition of the n unknowns of a (structurally nearly
/// symmetric) sparse matrix: every unknown is interior to exactly one piece
/// or on the shared interface, and no matrix entry couples interiors of two
/// different pieces.  Produced by partition::PartitionPattern
/// (src/partition); defined here so the sparse layer's BBD solver does not
/// depend on the partitioner.
struct BbdPlan {
  static constexpr int kInterface = -1;

  int num_pieces = 0;
  int dimension = 0;
  /// Piece id per unknown; kInterface marks interface unknowns.
  std::vector<int> piece_of;
  /// Global unknown ids per piece interior, ascending.
  std::vector<std::vector<int>> interiors;
  /// Global unknown ids on the interface, ascending.
  std::vector<int> interface_nodes;
  /// local_index[g] = position of unknown g within its block (its piece's
  /// `interiors` list or `interface_nodes`), matching the orders above.
  std::vector<int> local_index;

  std::size_t LargestPiece() const;
  std::size_t SmallestPiece() const;
  /// Largest piece over the ideal even interior split (1.0 = balanced).
  double Imbalance() const;
  /// Checks the separator property against `pattern` (test/debug aid):
  /// no entry may couple interiors of two different pieces.
  bool Validate(const CscMatrix& pattern) const;
};

/// Counters of one BbdSolver, exported under the `partition.` prefix.
/// Flop tallies are deterministic (pure functions of the factors), so the
/// bench speedup model is replayable; schur_seconds is wall clock.
struct BbdStats {
  int pieces = 0;
  std::size_t interface_size = 0;
  double piece_imbalance = 0.0;
  std::uint64_t full_factor_count = 0;   ///< cycles running a full piece Factor()
  std::uint64_t refactor_count = 0;      ///< numeric-only cycles
  std::uint64_t solve_count = 0;
  std::uint64_t schur_factor_count = 0;
  std::size_t schur_nnz = 0;             ///< structural interface-block nnz
  double schur_seconds = 0.0;            ///< Schur assembly + factor wall clock
  std::uint64_t piece_factor_flops = 0;  ///< cumulative, all pieces
  std::uint64_t schur_assembly_flops = 0;
  std::uint64_t schur_factor_flops = 0;
  std::uint64_t piece_solve_flops = 0;   ///< cumulative, both sweeps

  /// Registers every field under the `partition.` prefix.
  void ExportCounters(util::telemetry::CounterRegistry& registry) const;
};

class BbdSolver {
 public:
  BbdSolver() = default;

  /// Symbolic setup against `pattern` (the full-system CSC pattern the plan
  /// was computed for): builds the piece/coupling sub-patterns, the value
  /// scatter maps, and the structural Schur pattern.  Call once per pattern;
  /// numeric FactorOrRefactor()/Solve() reuse all of it.  Throws Error if
  /// `pattern` violates the plan's separator property.  `ordering_cache`
  /// (not owned) routes the orderings of every piece LU and of the Schur LU
  /// through a run-level cache, so the contexts of one run order each piece
  /// pattern once between them; null keeps the solver's own cache for the
  /// pieces and the Schur LU's private one.
  void Configure(std::shared_ptr<const BbdPlan> plan, const CscMatrix& pattern,
                 const SparseLu::Options& lu_options = {},
                 OrderingCache* ordering_cache = nullptr);

  bool configured() const { return plan_ != nullptr; }
  bool factored() const { return factored_; }
  const BbdPlan& plan() const { return *plan_; }
  const BbdStats& stats() const { return stats_; }

  /// Numeric factorization of `matrix` (same pattern as Configure() saw):
  /// scatters values, factors every piece (in parallel on `pool`; numeric
  /// refactorization when the piece already holds compatible factors),
  /// assembles and factors the Schur complement.  Throws SingularMatrixError
  /// when a piece or the interface block is singular — same contract as
  /// SparseLu::FactorOrRefactor, so Newton's rescue ladder applies unchanged.
  void FactorOrRefactor(const CscMatrix& matrix, util::ThreadPool* pool);

  /// Solves A x = b in place (b becomes x).  Requires FactorOrRefactor().
  /// Piece sweeps run in parallel on `pool`; interface math is serial.
  void Solve(std::span<double> b, util::ThreadPool* pool);

  /// Modeled makespan, in flop units, of one partitioned factor+solve cycle
  /// on `threads` workers: LPT-scheduled piece refactors + column-parallel
  /// Schur assembly + serial Schur factor/solve + LPT-scheduled piece solve
  /// sweeps.  Valid after FactorOrRefactor(); feeds bench_partition.
  double ModelFactorSolveMakespanFlops(int threads) const;
  /// Serial flops of the same cycle (= makespan at 1 thread).
  double SerialFactorSolveFlops() const;

 private:
  struct Piece {
    std::vector<int> globals;  ///< = plan interiors[k]
    CscMatrix a;               ///< interior x interior
    CscMatrix f;               ///< interior x interface (border column block)
    CscMatrix e;               ///< interface x interior (border row block)
    std::vector<int> a_src, f_src, e_src;  ///< global nnz index per local nnz
    /// Interface rows structurally reachable through this piece (rows
    /// present in e): the structural support of E_k · A_kk^{-1} · F_k(:,c).
    std::vector<int> interface_rows;
    SparseLu lu;
    std::vector<double> solve_work;  ///< per-piece triangular-solve scratch
    std::vector<double> z;           ///< interior intermediate / rhs slice
    // Last-cycle flop tallies for the makespan model.
    double factor_flops = 0.0;
    double solve_flops = 0.0;  ///< one triangular sweep
  };

  void ScatterValues(const CscMatrix& matrix);
  void AssembleSchur(util::ThreadPool* pool);

  std::shared_ptr<const BbdPlan> plan_;
  SparseLu::Options lu_options_;
  /// Shared across pieces when no run-level cache is attached: equal stripe
  /// patterns are ordered once.
  OrderingCache ordering_cache_;
  /// deque, not vector: Piece holds a SparseLu (non-movable atomics), so
  /// elements must construct in place and never relocate.
  std::deque<Piece> pieces_;
  CscMatrix c_;                   ///< interface x interface of A
  std::vector<int> c_src_;        ///< global nnz index per c_ nnz
  CscMatrix schur_;               ///< fixed structural pattern, refreshed values
  std::vector<int> c_to_schur_;   ///< schur_ value slot per c_ nnz
  SparseLu schur_lu_;
  std::vector<double> schur_work_;
  bool factored_ = false;
  double schur_factor_flops_last_ = 0.0;
  double schur_assembly_flops_last_ = 0.0;
  double schur_solve_flops_ = 0.0;  ///< one interface triangular sweep
  BbdStats stats_;
};

}  // namespace wavepipe::sparse

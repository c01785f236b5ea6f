// Sparse LU factorization for circuit (MNA) matrices.
//
// Two paths, mirroring what production SPICE engines do:
//
//  * Factor(): full Gilbert–Peierls left-looking factorization with
//    threshold partial pivoting and a diagonal preference, on top of a
//    fill-reducing minimum-degree column ordering.  Run once per sparsity
//    pattern (and again whenever pivots degrade).
//
//  * Refactor(): numeric-only refactorization that reuses the symbolic
//    pattern AND the pivot sequence of the last Factor().  This is the hot
//    path of the Newton loop: every Newton iteration changes only the
//    *values* of the Jacobian, never its pattern, so refactorization skips
//    the entire symbolic machinery.  If a reused pivot has become too small
//    relative to its column, Refactor() reports failure and the caller falls
//    back to Factor().
//
// On top of the fixed factor pattern, Factor() additionally derives the
// column-dependency DAG (column j depends on every r with U(r,j) != 0: its
// left-looking update reads L's column r) and its level sets, plus the
// analogous DAGs for the forward (L's rows) and backward (U's rows)
// triangular substitutions.  RefactorParallel()/SolveParallel() execute
// those level sets with a caller-supplied worker pool, one fork-join per
// level whose first chunk runs on the calling thread (ThreadPool::ForkJoin),
// bit-identical to the serial kernels: every column/row computation
// is a pure function of already-finalized predecessors, chunk partitions
// are deterministic, and no accumulation order changes.  A per-level cost
// model (flops per level vs barrier overhead) falls back to the serial
// kernels when levels are too thin — deep elimination chains on analog
// meshes must not regress.
//
// The factorization is A(:, q) = P^T · L · U, i.e. column j of the factors
// corresponds to original column q[j], and row i of A lives at permuted
// position pinv[i].
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "sparse/csc.hpp"
#include "sparse/level_schedule.hpp"
#include "sparse/ordering_cache.hpp"

namespace wavepipe::util {
class ThreadPool;
namespace telemetry {
class CounterRegistry;
}
}  // namespace wavepipe::util

namespace wavepipe::sparse {

class SparseLu {
 public:
  struct Options {
    /// Pick the diagonal entry as pivot whenever |diag| >= diag_preference *
    /// (column max).  Keeps MNA pivots on the diagonal (low fill, stable for
    /// diagonally dominant conductance matrices) while still escaping to
    /// true partial pivoting when the diagonal collapses.
    double diag_preference = 1e-3;
    /// Refactor() fails (returns false) when a reused pivot is smaller than
    /// this fraction of its column's max, signalling that the pivot sequence
    /// chosen at Factor() time is no longer numerically valid.
    double refactor_pivot_tol = 1e-10;
    /// Absolute floor below which a pivot is considered singular.
    double singular_tol = 1e-300;
    /// Fill-reducing ordering choice.
    enum class Ordering { kMinimumDegree, kNatural, kRcm };
    Ordering ordering = Ordering::kMinimumDegree;
    /// RefactorParallel()/SolveParallel() run their level schedules only when
    /// the per-level cost model predicts at least this speedup over the
    /// serial kernel at the participating thread count (the pool's workers
    /// plus the caller, ThreadPool::Participants); below it they silently run
    /// serial (correctness never depends on the choice — results are
    /// bit-identical either way).
    double level_min_speedup = 1.15;
    /// Modeled cost of one fork/join level barrier, in flop units, for the
    /// fallback decision.  Deliberately pessimistic toward level scheduling
    /// so thin-level DAGs keep the proven serial path.
    double level_barrier_flops = 384.0;
    /// Test hook: bypass the cost model and always execute the level
    /// schedules when a usable pool is supplied.
    bool force_level_schedule = false;
  };

  struct Stats {
    std::size_t nnz_l = 0;            // strictly-lower entries (unit diagonal implicit)
    std::size_t nnz_u = 0;            // strictly-upper entries + n diagonal entries
    std::uint64_t factor_count = 0;   // full factorizations performed
    std::uint64_t refactor_count = 0; // numeric-only refactorizations
    std::uint64_t solve_count = 0;
    std::uint64_t factor_flops = 0;   // multiply-add count, cumulative
    std::uint64_t solve_flops = 0;
    // Level-scheduling telemetry (valid after Factor()).  Benches and traces
    // read these instead of re-deriving schedules.
    int factor_levels = 0;                 ///< refactor DAG depth
    std::size_t factor_widest_level = 0;   ///< widest refactor level (columns)
    int solve_fwd_levels = 0;              ///< forward-substitution DAG depth
    int solve_bwd_levels = 0;              ///< backward-substitution DAG depth
    double modeled_refactor_speedup2 = 1.0;  ///< cost model, 2 threads
    double modeled_refactor_speedup4 = 1.0;  ///< cost model, 4 threads
    std::uint64_t parallel_refactor_count = 0;  ///< level-scheduled refactors run
    std::uint64_t refactor_fallback_count = 0;  ///< pool given, model chose serial
    std::uint64_t parallel_solve_count = 0;     ///< level-scheduled solves run
    std::uint64_t ordering_reuse_count = 0;     ///< Factor() reused a cached ordering
    std::uint64_t chord_step_count = 0;         ///< ChordStep() calls (stale-factor solves)

    /// Registers every field under the `sparse_lu.` prefix (the `lu.` block
    /// absorbed into TransientStats keeps its own names, so both may live in
    /// one registry).  See util/telemetry.hpp.
    void ExportCounters(util::telemetry::CounterRegistry& registry) const;
  };

  SparseLu() : SparseLu(Options{}) {}
  explicit SparseLu(Options options);

  /// Re-initializes with `options`: drops the factors, the private ordering
  /// slot and all counters, as if freshly constructed.  The attached shared
  /// ordering cache (if any) stays attached.  Exists because the atomic
  /// solve counters make SparseLu non-movable, so holders that rebuild
  /// (BbdSolver pieces) reset in place instead of assigning a new instance.
  void Reset(const Options& options);

  /// Full symbolic + numeric factorization.  Throws SingularMatrixError if a
  /// structurally or numerically singular column is met.  Also rebuilds the
  /// level schedules and row-major factor mirrors the parallel kernels use.
  void Factor(const CscMatrix& matrix);

  /// Makes this instance a copy of `source`'s last Factor(): options,
  /// ordering, pivot sequence, factor patterns and values, level schedules.
  /// Refactor() on a matrix with `source`'s pattern then skips the symbolic
  /// pass, which is how several value sets share one analysis (SparseLu
  /// itself is non-copyable).  Counters and the attached ordering cache stay
  /// this instance's own.  Precondition: `source.factored()`.
  void CopyFactorization(const SparseLu& source);

  /// Numeric-only refactorization.  Preconditions: Factor() has succeeded on
  /// a matrix with the identical pattern.  Returns false when pivot quality
  /// degraded; the factors are then invalid and Factor() must be rerun.
  bool Refactor(const CscMatrix& matrix);

  /// Level-scheduled parallel refactorization on `pool`.  Bit-identical to
  /// Refactor(): each column is the same pure function of its (barrier-
  /// separated, already final) dependency columns.  Falls back to the serial
  /// kernel when `pool` is null or the per-level cost model
  /// predicts no win (see Options::level_min_speedup).  A degraded pivot
  /// raises an atomic abort flag: in-flight columns drain, no further level
  /// starts, and false is returned with the factors invalidated.
  bool RefactorParallel(const CscMatrix& matrix, util::ThreadPool* pool);

  /// Refactor() if a compatible factorization exists, else Factor().
  void FactorOrRefactor(const CscMatrix& matrix);
  /// Same, routing the numeric refactorization through RefactorParallel().
  void FactorOrRefactor(const CscMatrix& matrix, util::ThreadPool* pool);

  /// Solves A x = b in place (b becomes x) using `workspace` as scratch
  /// (resized to the matrix dimension).  Thread-safe: any number of threads
  /// may Solve() against one factorization concurrently as long as each
  /// passes its own workspace.  Hot paths keep a workspace alive across
  /// calls to avoid reallocation.
  void Solve(std::span<double> b, std::vector<double>& workspace) const;

  /// Convenience overload backed by a thread-local workspace — no per-call
  /// allocation after the first use on a thread, and still safe to call from
  /// any number of threads concurrently.
  void Solve(std::span<double> b) const;

  /// Level-scheduled parallel triangular solves on `pool`, bit-identical to
  /// Solve(): the row-gather form accumulates each unknown's updates in
  /// exactly the serial substitution order.  Falls back to Solve() when the
  /// pool is absent or the cost model predicts no win
  /// (triangular-solve levels are thin on circuit matrices — the fallback is
  /// the common case; the parallel path exists for wide digital/mesh DAGs).
  void SolveParallel(std::span<double> b, std::vector<double>& workspace,
                     util::ThreadPool* pool) const;

  /// One step of iterative refinement: x += A \ (b - A x).  Returns the
  /// inf-norm of the correction (a cheap accuracy probe).  `residual` and
  /// `solve_workspace` are caller scratch (resized to dimension) so Newton
  /// loops refine without per-call allocation.
  double Refine(const CscMatrix& matrix, std::span<const double> b, std::span<double> x,
                std::vector<double>& residual, std::vector<double>& solve_workspace) const;

  /// Convenience overload backed by thread-local scratch.
  double Refine(const CscMatrix& matrix, std::span<const double> b,
                std::span<double> x) const;

  /// Chord-Newton step with a stale factor: x += LU \ (b - A x), where A/b
  /// are the CURRENT Jacobian/RHS and LU is whatever this object last
  /// factored.  Numerically this is one iterative-refinement sweep whose
  /// "preconditioner" happens to be stale — the fixed point still satisfies
  /// A x = b exactly, which is what makes factor reuse safe for Newton.
  /// Returns the inf-norm of the applied correction.  `residual` and
  /// `solve_workspace` are caller scratch (resized to dimension); the solve
  /// routes through SolveParallel() so level scheduling applies when `pool`
  /// is usable.
  double ChordStep(const CscMatrix& matrix, std::span<const double> b,
                   std::span<double> x, std::vector<double>& residual,
                   std::vector<double>& solve_workspace, util::ThreadPool* pool) const;

  /// Doubles in the numeric half of the factorization: exactly the arrays
  /// Refactor() rewrites (L's and U's values and U's diagonal).  Refactor()
  /// is a pure function of (symbolic state, matrix values), so factors saved
  /// after one Refactor() and loaded back while symbolic_generation() is
  /// unchanged reproduce that Refactor()'s state bit for bit
  /// (engine/factor_cache.hpp relies on this).
  std::size_t numeric_size() const { return lx_.size() + ux_.size() + udiag_.size(); }
  /// Copies the numeric factors into `out` (numeric_size() doubles).
  /// Precondition: factored().
  void SaveNumeric(std::span<double> out) const;
  /// Overwrites the numeric factors with `in`, saved from this instance
  /// under the current symbolic_generation().  Precondition: factored().
  void LoadNumeric(std::span<const double> in);

  /// Identifies the symbolic state (ordering, pivot sequence, factor
  /// patterns).  Bumped at the start of every Factor() (a throwing one
  /// included), by CopyFactorization() and by Reset(); Refactor() keeps it.
  std::uint64_t symbolic_generation() const { return generation_; }

  /// Attaches a shared fill-reducing-ordering cache (not owned; may be null
  /// to detach).  Factor() consults it after the private single-slot cache
  /// misses and publishes freshly computed orderings into it, so several
  /// SparseLu instances factoring equal patterns (WavePipe contexts, BBD
  /// pieces, batch variants) compute each ordering once.  Safe to share one
  /// cache across threads; see sparse/ordering_cache.hpp.
  void set_ordering_cache(OrderingCache* cache) { ordering_cache_ = cache; }

  bool factored() const { return factored_; }
  int dimension() const { return n_; }
  /// Snapshot of the counters (by value: solve counters are atomics
  /// internally so concurrent Solve() calls don't race on the tallies).
  Stats stats() const;
  std::span<const int> column_order() const { return q_; }

  // --- level-schedule introspection (valid after Factor()) -----------------
  /// Refactor column-dependency level sets (nodes are permuted column ids).
  const LevelSchedule& factor_level_schedule() const { return factor_levels_; }
  const LevelSchedule& forward_level_schedule() const { return fwd_levels_; }
  const LevelSchedule& backward_level_schedule() const { return bwd_levels_; }
  /// Modeled refactorization flops of permuted column j (update + scale).
  std::span<const double> column_flops() const { return col_flops_; }
  /// Serial refactorization cost: sum of column_flops().
  double serial_refactor_flops() const { return serial_refactor_flops_; }
  /// Permuted columns that column j's refactorization depends on — exactly
  /// the rows of U's column j.  This is the DAG the ledger replay exports.
  std::span<const int> FactorColumnDeps(int j) const {
    return std::span<const int>(ui_).subspan(
        static_cast<std::size_t>(up_[j]),
        static_cast<std::size_t>(up_[j + 1] - up_[j]));
  }
  /// Per-level cost model of a level-scheduled refactorization at `threads`
  /// participating threads, in flop units (equals serial_refactor_flops() at
  /// 1 thread).
  double ModelRefactorMakespanFlops(int threads) const;
  /// True when the cost model favors the level-scheduled refactorization.
  bool LevelScheduleProfitable(int threads) const;

 private:
  void ComputeOrdering(const CscMatrix& matrix);
  // Depth-first reach of A(:, col) over the partially built L; appends the
  // reach in reverse-topological (finishing) order to postorder_.
  void SymbolicReach(const CscMatrix& matrix, int col, int stamp);
  // Rebuilds the row-major factor mirrors, the dependency level sets and the
  // per-column flop model after a successful Factor().
  void BuildSchedules();
  // Numeric refactorization of permuted column j against `work` (dense
  // scratch, zero on this column's factor pattern not required — the kernel
  // zeroes exactly the slots it reads).  Writes this column's ux_/lx_/udiag_
  // slots only, reads dependency L columns finalized in earlier levels, so
  // concurrent calls on distinct columns of one level are race-free and
  // bit-identical to the serial loop.  Returns false on pivot degradation
  // (slots cleaned, nothing published).
  bool RefactorColumn(const CscMatrix& matrix, int j, double* work, std::uint64_t& flops);

  Options options_;
  Stats stats_;  ///< factor-side counters (mutated only by Factor/Refactor)
  /// Solve-side counters, atomic so concurrent const Solve() calls sharing
  /// one factorization tally without racing.
  mutable std::atomic<std::uint64_t> solve_count_{0};
  mutable std::atomic<std::uint64_t> solve_flops_{0};
  mutable std::atomic<std::uint64_t> parallel_solve_count_{0};
  mutable std::atomic<std::uint64_t> chord_step_count_{0};
  bool factored_ = false;
  std::uint64_t generation_ = 0;  // see symbolic_generation()
  int n_ = 0;
  std::size_t pattern_nnz_ = 0;  // nnz of the matrix Factor() saw

  // Column elimination order and row permutation.
  std::vector<int> q_;     // q_[j] = original column eliminated at step j
  std::vector<int> pinv_;  // pinv_[original row] = permuted position
  std::vector<int> prow_;  // prow_[permuted position] = original row
  // Fill-reducing ordering cache: ComputeOrdering() is skipped when Factor()
  // sees the same pattern again (the FactorOrRefactor pivot-failure fallback
  // re-factors the identical pattern every time).
  bool ordering_cached_ = false;
  int ordering_n_ = 0;
  std::size_t ordering_nnz_ = 0;
  std::uint64_t ordering_pattern_hash_ = 0;
  Options::Ordering ordering_kind_ = Options::Ordering::kMinimumDegree;
  /// Optional shared cache consulted when the private slot misses.
  OrderingCache* ordering_cache_ = nullptr;

  // L: strictly lower triangular, unit diagonal implicit, permuted row ids.
  std::vector<int> lp_;
  std::vector<int> li_;
  std::vector<double> lx_;
  // U: strictly upper, permuted row ids sorted ascending per column.
  std::vector<int> up_;
  std::vector<int> ui_;
  std::vector<double> ux_;
  std::vector<double> udiag_;

  // Row-major mirrors of the factor patterns (value arrays stay lx_/ux_ via
  // the *_val_ index maps, so refactorization needs no mirror refresh).
  // L rows keep columns ascending (the forward-substitution gather order);
  // U rows keep columns DESCENDING (the backward-substitution order).
  std::vector<int> lrow_ptr_, lrow_col_, lrow_val_;
  std::vector<int> urow_ptr_, urow_col_, urow_val_;

  // Level sets: refactor DAG (U columns), forward solve (L rows), backward
  // solve (U rows); all over permuted column/row ids.
  LevelSchedule factor_levels_;
  LevelSchedule fwd_levels_;
  LevelSchedule bwd_levels_;
  std::vector<double> col_flops_;      // refactor flops per permuted column
  std::vector<double> fwd_node_cost_;  // forward-solve entries per node
  std::vector<double> bwd_node_cost_;  // backward-solve entries per node
  double serial_refactor_flops_ = 0.0;

  // Workspaces (sized n), reused across Factor/Refactor calls.  Solve()
  // deliberately does NOT touch these: it is const and may run concurrently
  // from several threads, so its scratch is caller-provided.
  std::vector<double> work_;
  std::vector<int> mark_;
  std::vector<int> postorder_;
  std::vector<int> dfs_stack_;
  std::vector<int> dfs_child_;
  // Per-chunk dense scratch for RefactorParallel (one per in-flight chunk).
  std::vector<std::vector<double>> parallel_work_;
};

}  // namespace wavepipe::sparse

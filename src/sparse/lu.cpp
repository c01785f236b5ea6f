#include "sparse/lu.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "sparse/ordering.hpp"
#include "sparse/vector_ops.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace wavepipe::sparse {

void SparseLu::Stats::ExportCounters(util::telemetry::CounterRegistry& registry) const {
  registry.Count("sparse_lu.nnz_l", nnz_l);
  registry.Count("sparse_lu.nnz_u", nnz_u);
  registry.Count("sparse_lu.factor_count", factor_count);
  registry.Count("sparse_lu.refactor_count", refactor_count);
  registry.Count("sparse_lu.solve_count", solve_count);
  registry.Count("sparse_lu.factor_flops", factor_flops);
  registry.Count("sparse_lu.solve_flops", solve_flops);
  registry.Count("sparse_lu.factor_levels", static_cast<std::uint64_t>(factor_levels));
  registry.Count("sparse_lu.factor_widest_level", factor_widest_level);
  registry.Count("sparse_lu.solve_fwd_levels", static_cast<std::uint64_t>(solve_fwd_levels));
  registry.Count("sparse_lu.solve_bwd_levels", static_cast<std::uint64_t>(solve_bwd_levels));
  registry.Value("sparse_lu.modeled_refactor_speedup2", modeled_refactor_speedup2);
  registry.Value("sparse_lu.modeled_refactor_speedup4", modeled_refactor_speedup4);
  registry.Count("sparse_lu.parallel_refactor_count", parallel_refactor_count);
  registry.Count("sparse_lu.refactor_fallback_count", refactor_fallback_count);
  registry.Count("sparse_lu.parallel_solve_count", parallel_solve_count);
  registry.Count("sparse_lu.ordering_reuse_count", ordering_reuse_count);
  registry.Count("sparse_lu.chord_step_count", chord_step_count);
}
namespace {

/// Below this many columns a level chunk is processed inline by the calling
/// thread: a fork/join submission costs more than a handful of sparse
/// column updates.  Affects speed only, never results.
constexpr std::size_t kMinColsPerChunk = 8;

}  // namespace

SparseLu::SparseLu(Options options) : options_(options) {}

void SparseLu::Reset(const Options& options) {
  options_ = options;
  factored_ = false;
  ++generation_;
  n_ = 0;
  pattern_nnz_ = 0;
  ordering_cached_ = false;
  stats_ = Stats{};
  solve_count_.store(0, std::memory_order_relaxed);
  solve_flops_.store(0, std::memory_order_relaxed);
  parallel_solve_count_.store(0, std::memory_order_relaxed);
  chord_step_count_.store(0, std::memory_order_relaxed);
}

void SparseLu::ComputeOrdering(const CscMatrix& matrix) {
  const std::uint64_t hash = PatternHash(matrix);
  if (ordering_cached_ && ordering_n_ == matrix.cols() &&
      ordering_nnz_ == matrix.num_nonzeros() && ordering_pattern_hash_ == hash &&
      ordering_kind_ == options_.ordering) {
    ++stats_.ordering_reuse_count;
    return;
  }
  // Shared cache: other instances may already have ordered this pattern
  // (WavePipe contexts on one circuit, equal BBD piece stripes).
  const OrderingCache::Key key{matrix.cols(), matrix.num_nonzeros(), hash,
                               static_cast<int>(options_.ordering)};
  if (ordering_cache_ != nullptr) {
    if (OrderingCache::OrderingPtr cached = ordering_cache_->Find(key)) {
      q_ = *cached;
      ++stats_.ordering_reuse_count;
      ordering_cached_ = true;
      ordering_n_ = matrix.cols();
      ordering_nnz_ = matrix.num_nonzeros();
      ordering_pattern_hash_ = hash;
      ordering_kind_ = options_.ordering;
      return;
    }
  }
  {
    WP_TSPAN("factor", "ordering");
    switch (options_.ordering) {
      case Options::Ordering::kMinimumDegree:
        q_ = MinimumDegreeOrder(matrix);
        break;
      case Options::Ordering::kNatural:
        q_ = NaturalOrder(matrix.cols());
        break;
      case Options::Ordering::kRcm:
        q_ = ReverseCuthillMcKeeOrder(matrix);
        break;
    }
  }
  if (ordering_cache_ != nullptr) {
    // First insert wins; adopt whatever the cache settled on so concurrent
    // factors of one pattern stay deterministic.
    q_ = *ordering_cache_->Insert(key, q_);
  }
  ordering_cached_ = true;
  ordering_n_ = matrix.cols();
  ordering_nnz_ = matrix.num_nonzeros();
  ordering_pattern_hash_ = hash;
  ordering_kind_ = options_.ordering;
}

void SparseLu::SymbolicReach(const CscMatrix& matrix, int col, int stamp) {
  // Iterative DFS over the graph "node i -> rows of L column pinv_[i]".
  // Nodes are ORIGINAL row indices (L row ids are original during Factor()).
  postorder_.clear();
  for (int k = matrix.col_begin(col); k < matrix.col_end(col); ++k) {
    const int start = matrix.row_of(k);
    if (mark_[start] == stamp) continue;

    dfs_stack_.clear();
    dfs_stack_.push_back(start);
    // dfs_child_[depth] = next child index to explore at that stack depth.
    dfs_child_.resize(1);
    dfs_child_[0] = (pinv_[start] >= 0) ? lp_[pinv_[start]] : -1;
    mark_[start] = stamp;

    while (!dfs_stack_.empty()) {
      const std::size_t depth = dfs_stack_.size() - 1;
      const int node = dfs_stack_.back();
      const int lcol = pinv_[node];
      bool descended = false;
      if (lcol >= 0) {
        int& child_it = dfs_child_[depth];
        const int child_end = lp_[lcol + 1];
        while (child_it < child_end) {
          const int child = li_[child_it++];
          if (mark_[child] != stamp) {
            mark_[child] = stamp;
            dfs_stack_.push_back(child);
            dfs_child_.resize(dfs_stack_.size());
            dfs_child_.back() = (pinv_[child] >= 0) ? lp_[pinv_[child]] : -1;
            descended = true;
            break;
          }
        }
      }
      if (!descended) {
        postorder_.push_back(node);  // finished
        dfs_stack_.pop_back();
        dfs_child_.resize(dfs_stack_.size());
      }
    }
  }
}

void SparseLu::Factor(const CscMatrix& matrix) {
  WP_ASSERT(matrix.rows() == matrix.cols());
  n_ = matrix.cols();
  pattern_nnz_ = matrix.num_nonzeros();
  factored_ = false;
  ++generation_;

  ComputeOrdering(matrix);

  pinv_.assign(static_cast<std::size_t>(n_), -1);
  prow_.assign(static_cast<std::size_t>(n_), -1);
  lp_.assign(static_cast<std::size_t>(n_) + 1, 0);
  up_.assign(static_cast<std::size_t>(n_) + 1, 0);
  li_.clear();
  lx_.clear();
  ui_.clear();
  ux_.clear();
  udiag_.assign(static_cast<std::size_t>(n_), 0.0);
  work_.assign(static_cast<std::size_t>(n_), 0.0);
  mark_.assign(static_cast<std::size_t>(n_), -1);

  std::uint64_t flops = 0;
  std::vector<std::pair<int, double>> ucol;  // (permuted row, value) staging

  for (int j = 0; j < n_; ++j) {
    const int col = q_[j];

    // --- Symbolic: reach of A(:,col) over current L ------------------------
    SymbolicReach(matrix, col, /*stamp=*/j);

    // --- Numeric: sparse triangular solve x = L \ A(:,col) -----------------
    // Invariant: work_ is zero outside the current reach.
    for (int k = matrix.col_begin(col); k < matrix.col_end(col); ++k) {
      work_[matrix.row_of(k)] = matrix.value_of(k);
    }
    // Reverse finishing order = topological order (dependencies first).
    for (auto it = postorder_.rbegin(); it != postorder_.rend(); ++it) {
      const int node = *it;
      const int lcol = pinv_[node];
      if (lcol < 0) continue;  // not yet pivotal: no outgoing updates
      const double xj = work_[node];
      if (xj == 0.0) continue;
      for (int k = lp_[lcol]; k < lp_[lcol + 1]; ++k) {
        work_[li_[k]] -= lx_[k] * xj;
        ++flops;
      }
    }

    // --- Partition reach into U entries and pivot candidates ---------------
    ucol.clear();
    int pivot_row = -1;
    double pivot_abs = 0.0;
    for (int node : postorder_) {
      if (pinv_[node] >= 0) {
        ucol.emplace_back(pinv_[node], work_[node]);
      } else {
        const double mag = std::abs(work_[node]);
        if (mag > pivot_abs) {
          pivot_abs = mag;
          pivot_row = node;
        }
      }
    }
    // Diagonal preference: keep A(col,col) as pivot when close enough to the
    // column max.  (mark_[col] == j tests membership in the reach.)
    if (mark_[col] == j && pinv_[col] < 0 &&
        std::abs(work_[col]) >= options_.diag_preference * pivot_abs) {
      pivot_row = col;
    }
    if (pivot_row < 0 || std::abs(work_[pivot_row]) <= options_.singular_tol) {
      // Clean up workspace before throwing so the object stays reusable.
      for (int node : postorder_) work_[node] = 0.0;
      throw SingularMatrixError(
          "sparse LU: singular at elimination step " + std::to_string(j) +
              " (original column " + std::to_string(col) + ")",
          col);
    }
    const double pivot = work_[pivot_row];
    pinv_[pivot_row] = j;
    prow_[j] = pivot_row;
    udiag_[j] = pivot;

    // --- Emit U column j (sorted by permuted row for Refactor()) -----------
    std::sort(ucol.begin(), ucol.end());
    for (const auto& [row, value] : ucol) {
      ui_.push_back(row);
      ux_.push_back(value);
    }
    up_[j + 1] = static_cast<int>(ui_.size());

    // --- Emit L column j (original row ids for now, remapped after) --------
    for (int node : postorder_) {
      if (pinv_[node] < 0) {  // remaining candidates go below the pivot
        li_.push_back(node);
        lx_.push_back(work_[node] / pivot);
        ++flops;
      }
      work_[node] = 0.0;  // restore invariant
    }
    lp_[j + 1] = static_cast<int>(li_.size());
  }

  // Remap L row indices into permuted space (every row is pivotal now).
  for (int& row : li_) row = pinv_[row];

  BuildSchedules();

  stats_.nnz_l = li_.size();
  stats_.nnz_u = ui_.size() + static_cast<std::size_t>(n_);
  stats_.factor_count += 1;
  stats_.factor_flops += flops;
  stats_.factor_levels = factor_levels_.num_levels();
  stats_.factor_widest_level = factor_levels_.widest_level();
  stats_.solve_fwd_levels = fwd_levels_.num_levels();
  stats_.solve_bwd_levels = bwd_levels_.num_levels();
  stats_.modeled_refactor_speedup2 =
      serial_refactor_flops_ > 0.0
          ? serial_refactor_flops_ / ModelRefactorMakespanFlops(2)
          : 1.0;
  stats_.modeled_refactor_speedup4 =
      serial_refactor_flops_ > 0.0
          ? serial_refactor_flops_ / ModelRefactorMakespanFlops(4)
          : 1.0;
  factored_ = true;
}

void SparseLu::CopyFactorization(const SparseLu& source) {
  WP_ASSERT(source.factored_);
  ++generation_;
  options_ = source.options_;
  stats_.nnz_l = source.stats_.nnz_l;
  stats_.nnz_u = source.stats_.nnz_u;
  stats_.factor_levels = source.stats_.factor_levels;
  stats_.factor_widest_level = source.stats_.factor_widest_level;
  stats_.solve_fwd_levels = source.stats_.solve_fwd_levels;
  stats_.solve_bwd_levels = source.stats_.solve_bwd_levels;
  stats_.modeled_refactor_speedup2 = source.stats_.modeled_refactor_speedup2;
  stats_.modeled_refactor_speedup4 = source.stats_.modeled_refactor_speedup4;
  factored_ = true;
  n_ = source.n_;
  pattern_nnz_ = source.pattern_nnz_;
  q_ = source.q_;
  pinv_ = source.pinv_;
  prow_ = source.prow_;
  ordering_cached_ = source.ordering_cached_;
  ordering_n_ = source.ordering_n_;
  ordering_nnz_ = source.ordering_nnz_;
  ordering_pattern_hash_ = source.ordering_pattern_hash_;
  ordering_kind_ = source.ordering_kind_;
  lp_ = source.lp_;
  li_ = source.li_;
  lx_ = source.lx_;
  up_ = source.up_;
  ui_ = source.ui_;
  ux_ = source.ux_;
  udiag_ = source.udiag_;
  lrow_ptr_ = source.lrow_ptr_;
  lrow_col_ = source.lrow_col_;
  lrow_val_ = source.lrow_val_;
  urow_ptr_ = source.urow_ptr_;
  urow_col_ = source.urow_col_;
  urow_val_ = source.urow_val_;
  factor_levels_ = source.factor_levels_;
  fwd_levels_ = source.fwd_levels_;
  bwd_levels_ = source.bwd_levels_;
  col_flops_ = source.col_flops_;
  fwd_node_cost_ = source.fwd_node_cost_;
  bwd_node_cost_ = source.bwd_node_cost_;
  serial_refactor_flops_ = source.serial_refactor_flops_;
  // Refactor() relies on work_ being zero; Factor() re-sizes the rest.
  work_.assign(static_cast<std::size_t>(n_), 0.0);
}

void SparseLu::SaveNumeric(std::span<double> out) const {
  WP_ASSERT(factored_);
  WP_ASSERT(out.size() == numeric_size());
  auto it = std::copy(lx_.begin(), lx_.end(), out.begin());
  it = std::copy(ux_.begin(), ux_.end(), it);
  std::copy(udiag_.begin(), udiag_.end(), it);
}

void SparseLu::LoadNumeric(std::span<const double> in) {
  WP_ASSERT(factored_);
  WP_ASSERT(in.size() == numeric_size());
  auto it = in.begin();
  std::copy(it, it + static_cast<std::ptrdiff_t>(lx_.size()), lx_.begin());
  it += static_cast<std::ptrdiff_t>(lx_.size());
  std::copy(it, it + static_cast<std::ptrdiff_t>(ux_.size()), ux_.begin());
  it += static_cast<std::ptrdiff_t>(ux_.size());
  std::copy(it, in.end(), udiag_.begin());
}

void SparseLu::BuildSchedules() {
  const std::size_t n = static_cast<std::size_t>(n_);

  // Row-major mirror of L, columns ascending per row (counting sort over
  // ascending columns keeps them sorted).
  lrow_ptr_.assign(n + 1, 0);
  for (int row : li_) ++lrow_ptr_[static_cast<std::size_t>(row) + 1];
  for (std::size_t i = 0; i < n; ++i) lrow_ptr_[i + 1] += lrow_ptr_[i];
  lrow_col_.resize(li_.size());
  lrow_val_.resize(li_.size());
  {
    std::vector<int> cursor(lrow_ptr_.begin(), lrow_ptr_.end() - 1);
    for (int j = 0; j < n_; ++j) {
      for (int k = lp_[j]; k < lp_[j + 1]; ++k) {
        const int pos = cursor[static_cast<std::size_t>(li_[k])]++;
        lrow_col_[static_cast<std::size_t>(pos)] = j;
        lrow_val_[static_cast<std::size_t>(pos)] = k;
      }
    }
  }

  // Row-major mirror of U with columns DESCENDING per row: backward
  // substitution applies columns n-1..0, so the gather must replay that
  // order for bit-identity.
  urow_ptr_.assign(n + 1, 0);
  for (int row : ui_) ++urow_ptr_[static_cast<std::size_t>(row) + 1];
  for (std::size_t i = 0; i < n; ++i) urow_ptr_[i + 1] += urow_ptr_[i];
  urow_col_.resize(ui_.size());
  urow_val_.resize(ui_.size());
  {
    std::vector<int> cursor(urow_ptr_.begin(), urow_ptr_.end() - 1);
    for (int j = n_ - 1; j >= 0; --j) {
      for (int k = up_[j]; k < up_[j + 1]; ++k) {
        const int pos = cursor[static_cast<std::size_t>(ui_[k])]++;
        urow_col_[static_cast<std::size_t>(pos)] = j;
        urow_val_[static_cast<std::size_t>(pos)] = k;
      }
    }
  }

  // Level assignments.  Refactor DAG: column j reads L's column r for every
  // U(r,j) != 0, so level(j) = 1 + max over those r (all r < j: ascending
  // sweep finalizes dependencies first).
  std::vector<int> level(n, 0);
  for (int j = 0; j < n_; ++j) {
    int lv = 0;
    for (int k = up_[j]; k < up_[j + 1]; ++k) {
      lv = std::max(lv, level[static_cast<std::size_t>(ui_[k])] + 1);
    }
    level[static_cast<std::size_t>(j)] = lv;
  }
  factor_levels_ = BuildLevelSchedule(level);

  // Forward substitution: z[i] is final once every column r with L(i,r) != 0
  // has been applied — propagate levels down each L column.
  std::fill(level.begin(), level.end(), 0);
  for (int j = 0; j < n_; ++j) {
    const int lj = level[static_cast<std::size_t>(j)];
    for (int k = lp_[j]; k < lp_[j + 1]; ++k) {
      int& li_level = level[static_cast<std::size_t>(li_[k])];
      li_level = std::max(li_level, lj + 1);
    }
  }
  fwd_levels_ = BuildLevelSchedule(level);

  // Backward substitution: z[r] needs every column j > r with U(r,j) != 0
  // already divided — propagate levels up each U column, descending.
  std::fill(level.begin(), level.end(), 0);
  for (int j = n_ - 1; j >= 0; --j) {
    const int lj = level[static_cast<std::size_t>(j)];
    for (int k = up_[j]; k < up_[j + 1]; ++k) {
      int& r_level = level[static_cast<std::size_t>(ui_[k])];
      r_level = std::max(r_level, lj + 1);
    }
  }
  bwd_levels_ = BuildLevelSchedule(level);

  // Per-column refactor flop model: one multiply-add per L entry of every
  // dependency column, plus the pivot scaling of this column's L entries.
  col_flops_.assign(n, 0.0);
  serial_refactor_flops_ = 0.0;
  for (int j = 0; j < n_; ++j) {
    double flops = 0.0;
    for (int k = up_[j]; k < up_[j + 1]; ++k) {
      const int r = ui_[k];
      flops += static_cast<double>(lp_[r + 1] - lp_[r]);
    }
    flops += static_cast<double>(lp_[j + 1] - lp_[j]);
    col_flops_[static_cast<std::size_t>(j)] = flops;
    serial_refactor_flops_ += flops;
  }

  // Triangular-solve node costs: entries gathered per node (+1 for the
  // load/store or diagonal division).
  fwd_node_cost_.assign(n, 0.0);
  bwd_node_cost_.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    fwd_node_cost_[i] = static_cast<double>(lrow_ptr_[i + 1] - lrow_ptr_[i]) + 1.0;
    bwd_node_cost_[i] = static_cast<double>(urow_ptr_[i + 1] - urow_ptr_[i]) + 1.0;
  }
}

double SparseLu::ModelRefactorMakespanFlops(int threads) const {
  return ModelLevelMakespan(factor_levels_, col_flops_, threads,
                            options_.level_barrier_flops);
}

bool SparseLu::LevelScheduleProfitable(int threads) const {
  if (threads < 2) return false;
  if (options_.force_level_schedule) return true;
  return serial_refactor_flops_ >
         options_.level_min_speedup * ModelRefactorMakespanFlops(threads);
}

bool SparseLu::RefactorColumn(const CscMatrix& matrix, int j, double* work,
                              std::uint64_t& flops) {
  const int col = q_[j];

  // Zero the factor pattern of this column, then scatter A's column into
  // permuted positions.  The factor pattern is a superset of A's pattern
  // (fill-in), so zero-first makes all fill positions well defined.
  for (int k = up_[j]; k < up_[j + 1]; ++k) work[ui_[k]] = 0.0;
  for (int k = lp_[j]; k < lp_[j + 1]; ++k) work[li_[k]] = 0.0;
  work[j] = 0.0;
  for (int k = matrix.col_begin(col); k < matrix.col_end(col); ++k) {
    work[pinv_[matrix.row_of(k)]] = matrix.value_of(k);
  }

  // Left-looking update: U rows ascending guarantees each x[r] is final
  // before its L column is applied.
  for (int k = up_[j]; k < up_[j + 1]; ++k) {
    const int r = ui_[k];
    const double xr = work[r];
    ux_[k] = xr;
    if (xr == 0.0) continue;
    for (int m = lp_[r]; m < lp_[r + 1]; ++m) {
      work[li_[m]] -= lx_[m] * xr;
      ++flops;
    }
  }

  // Pivot quality check against the column's magnitude.
  const double pivot = work[j];
  double col_max = std::abs(pivot);
  for (int k = lp_[j]; k < lp_[j + 1]; ++k) {
    col_max = std::max(col_max, std::abs(work[li_[k]]));
  }
  if (std::abs(pivot) <= options_.singular_tol ||
      std::abs(pivot) < options_.refactor_pivot_tol * col_max) {
    // Clean up the workspace; the caller invalidates the factors.
    for (int k = up_[j]; k < up_[j + 1]; ++k) work[ui_[k]] = 0.0;
    for (int k = lp_[j]; k < lp_[j + 1]; ++k) work[li_[k]] = 0.0;
    work[j] = 0.0;
    return false;
  }
  udiag_[j] = pivot;
  for (int k = lp_[j]; k < lp_[j + 1]; ++k) {
    lx_[k] = work[li_[k]] / pivot;
    work[li_[k]] = 0.0;
    ++flops;
  }
  for (int k = up_[j]; k < up_[j + 1]; ++k) work[ui_[k]] = 0.0;
  work[j] = 0.0;
  return true;
}

bool SparseLu::Refactor(const CscMatrix& matrix) {
  WP_ASSERT(factored_);
  WP_ASSERT(matrix.rows() == n_ && matrix.cols() == n_);
  WP_ASSERT(matrix.num_nonzeros() == pattern_nnz_);

  std::uint64_t flops = 0;
  for (int j = 0; j < n_; ++j) {
    if (!RefactorColumn(matrix, j, work_.data(), flops)) {
      factored_ = false;
      return false;
    }
  }

  stats_.refactor_count += 1;
  stats_.factor_flops += flops;
  return true;
}

bool SparseLu::RefactorParallel(const CscMatrix& matrix, util::ThreadPool* pool) {
  const int threads = static_cast<int>(util::ThreadPool::Participants(pool));
  if (threads < 2 || !LevelScheduleProfitable(threads)) {
    if (threads >= 2) ++stats_.refactor_fallback_count;
    return Refactor(matrix);
  }
  WP_ASSERT(factored_);
  WP_ASSERT(matrix.rows() == n_ && matrix.cols() == n_);
  WP_ASSERT(matrix.num_nonzeros() == pattern_nnz_);

  if (parallel_work_.size() < static_cast<std::size_t>(threads)) {
    parallel_work_.resize(static_cast<std::size_t>(threads));
  }
  for (int c = 0; c < threads; ++c) {
    parallel_work_[static_cast<std::size_t>(c)].resize(static_cast<std::size_t>(n_));
  }

  std::atomic<bool> abort{false};
  std::uint64_t flops = 0;
  std::vector<std::uint64_t> chunk_flops;

  for (int l = 0; l < factor_levels_.num_levels() && !abort.load(std::memory_order_relaxed);
       ++l) {
    const std::span<const int> nodes = factor_levels_.Level(l);
    const std::size_t chunk_count = std::clamp<std::size_t>(
        nodes.size() / kMinColsPerChunk, 1, static_cast<std::size_t>(threads));
    auto run_chunk = [&](std::span<const int> part, double* work) -> std::uint64_t {
      std::uint64_t local_flops = 0;
      for (int j : part) {
        if (abort.load(std::memory_order_relaxed)) break;
        if (!RefactorColumn(matrix, j, work, local_flops)) {
          abort.store(true, std::memory_order_relaxed);
          break;
        }
      }
      return local_flops;
    };

    if (chunk_count <= 1) {
      flops += run_chunk(nodes, parallel_work_[0].data());
      continue;
    }
    // Deterministic contiguous partition; columns within a level are
    // independent and write disjoint factor slots, so any partition yields
    // the same bits — contiguity just keeps the index streams cache-friendly.
    const std::size_t per_chunk = (nodes.size() + chunk_count - 1) / chunk_count;
    chunk_flops.assign((nodes.size() + per_chunk - 1) / per_chunk, 0);
    util::ThreadPool::ForkJoin(pool, chunk_flops.size(), [&](std::size_t chunk) {
      const std::size_t begin = chunk * per_chunk;
      chunk_flops[chunk] =
          run_chunk(nodes.subspan(begin, std::min(per_chunk, nodes.size() - begin)),
                    parallel_work_[chunk].data());
    });
    for (const std::uint64_t f : chunk_flops) flops += f;
  }

  if (abort.load(std::memory_order_relaxed)) {
    factored_ = false;
    return false;
  }
  stats_.refactor_count += 1;
  stats_.parallel_refactor_count += 1;
  stats_.factor_flops += flops;
  return true;
}

void SparseLu::FactorOrRefactor(const CscMatrix& matrix) {
  FactorOrRefactor(matrix, nullptr);
}

void SparseLu::FactorOrRefactor(const CscMatrix& matrix, util::ThreadPool* pool) {
  // Fault site: a pivot failure at the entry point of the Newton loop's
  // linear-solver path.  Thrown (not returned) so tests exercise the same
  // unwinding a genuine SingularMatrixError from Factor() would take.
  if (WP_FAULT_POINT("lu.pivot")) {
    throw SingularMatrixError("lu.pivot: injected pivot failure", -1);
  }
  if (factored_ && matrix.cols() == n_ && matrix.num_nonzeros() == pattern_nnz_) {
    if (RefactorParallel(matrix, pool)) return;
  }
  Factor(matrix);
}

void SparseLu::Solve(std::span<double> b) const {
  // Thread-local scratch: no per-call allocation on hot paths, and still
  // safe when many threads share one factorization.
  static thread_local std::vector<double> tl_workspace;
  Solve(b, tl_workspace);
}

void SparseLu::Solve(std::span<double> b, std::vector<double>& workspace) const {
  WP_ASSERT(factored_);
  WP_ASSERT(static_cast<int>(b.size()) == n_);

  // z = P b.
  workspace.resize(static_cast<std::size_t>(n_));
  std::vector<double>& z = workspace;
  for (int i = 0; i < n_; ++i) z[pinv_[i]] = b[i];

  // Forward substitution, unit lower triangular.
  for (int j = 0; j < n_; ++j) {
    const double zj = z[j];
    if (zj == 0.0) continue;
    for (int k = lp_[j]; k < lp_[j + 1]; ++k) z[li_[k]] -= lx_[k] * zj;
  }
  // Back substitution.
  for (int j = n_ - 1; j >= 0; --j) {
    const double zj = z[j] / udiag_[j];
    z[j] = zj;
    if (zj == 0.0) continue;
    for (int k = up_[j]; k < up_[j + 1]; ++k) z[ui_[k]] -= ux_[k] * zj;
  }
  // Un-permute columns: x[q_[j]] = z[j].
  for (int j = 0; j < n_; ++j) b[q_[j]] = z[j];

  solve_count_.fetch_add(1, std::memory_order_relaxed);
  solve_flops_.fetch_add(li_.size() + ui_.size() + static_cast<std::size_t>(n_),
                         std::memory_order_relaxed);
}

void SparseLu::SolveParallel(std::span<double> b, std::vector<double>& workspace,
                             util::ThreadPool* pool) const {
  const int threads = static_cast<int>(util::ThreadPool::Participants(pool));
  bool profitable = false;
  if (threads >= 2) {
    if (options_.force_level_schedule) {
      profitable = true;
    } else {
      const double serial_cost =
          static_cast<double>(li_.size() + ui_.size() + static_cast<std::size_t>(n_));
      const double parallel_cost =
          ModelLevelMakespan(fwd_levels_, fwd_node_cost_, threads,
                             options_.level_barrier_flops) +
          ModelLevelMakespan(bwd_levels_, bwd_node_cost_, threads,
                             options_.level_barrier_flops);
      profitable = serial_cost > options_.level_min_speedup * parallel_cost;
    }
  }
  if (!profitable) {
    Solve(b, workspace);
    return;
  }

  WP_ASSERT(factored_);
  WP_ASSERT(static_cast<int>(b.size()) == n_);
  workspace.resize(static_cast<std::size_t>(n_));
  double* z = workspace.data();
  for (int i = 0; i < n_; ++i) z[pinv_[i]] = b[i];

  // Each node writes only z[node] and reads nodes finalized in earlier
  // levels, so intra-level execution is race-free; the gathers accumulate in
  // the exact serial substitution order (L rows ascending, U rows
  // descending), so the bits match Solve().
  auto run_levels = [&](const LevelSchedule& levels, auto&& node_op) {
    for (int l = 0; l < levels.num_levels(); ++l) {
      const std::span<const int> nodes = levels.Level(l);
      const std::size_t chunk_count = std::clamp<std::size_t>(
          nodes.size() / kMinColsPerChunk, 1, static_cast<std::size_t>(threads));
      if (chunk_count <= 1) {
        for (int node : nodes) node_op(node);
        continue;
      }
      const std::size_t per_chunk = (nodes.size() + chunk_count - 1) / chunk_count;
      util::ThreadPool::ForkJoin(
          pool, (nodes.size() + per_chunk - 1) / per_chunk, [&](std::size_t chunk) {
            const std::size_t begin = chunk * per_chunk;
            for (int node : nodes.subspan(begin, std::min(per_chunk, nodes.size() - begin))) {
              node_op(node);
            }
          });
    }
  };

  // Forward substitution (row-gather form of the unit lower triangle).
  run_levels(fwd_levels_, [&](int i) {
    double zi = z[i];
    for (int k = lrow_ptr_[i]; k < lrow_ptr_[i + 1]; ++k) {
      zi -= lx_[lrow_val_[k]] * z[lrow_col_[k]];
    }
    z[i] = zi;
  });
  // Back substitution (row-gather, columns descending, then the division).
  run_levels(bwd_levels_, [&](int i) {
    double zi = z[i];
    for (int k = urow_ptr_[i]; k < urow_ptr_[i + 1]; ++k) {
      zi -= ux_[urow_val_[k]] * z[urow_col_[k]];
    }
    z[i] = zi / udiag_[i];
  });

  for (int j = 0; j < n_; ++j) b[q_[j]] = z[j];

  solve_count_.fetch_add(1, std::memory_order_relaxed);
  parallel_solve_count_.fetch_add(1, std::memory_order_relaxed);
  solve_flops_.fetch_add(li_.size() + ui_.size() + static_cast<std::size_t>(n_),
                         std::memory_order_relaxed);
}

SparseLu::Stats SparseLu::stats() const {
  Stats snapshot = stats_;
  snapshot.solve_count = solve_count_.load(std::memory_order_relaxed);
  snapshot.solve_flops = solve_flops_.load(std::memory_order_relaxed);
  snapshot.parallel_solve_count = parallel_solve_count_.load(std::memory_order_relaxed);
  snapshot.chord_step_count = chord_step_count_.load(std::memory_order_relaxed);
  return snapshot;
}

double SparseLu::Refine(const CscMatrix& matrix, std::span<const double> b,
                        std::span<double> x, std::vector<double>& residual,
                        std::vector<double>& solve_workspace) const {
  residual.assign(b.begin(), b.end());
  matrix.MultiplyAccumulate(x, residual, -1.0);
  Solve(residual, solve_workspace);
  const double correction = NormInf(residual);
  Axpy(1.0, residual, x);
  return correction;
}

double SparseLu::Refine(const CscMatrix& matrix, std::span<const double> b,
                        std::span<double> x) const {
  static thread_local std::vector<double> tl_residual;
  static thread_local std::vector<double> tl_workspace;
  return Refine(matrix, b, x, tl_residual, tl_workspace);
}

double SparseLu::ChordStep(const CscMatrix& matrix, std::span<const double> b,
                           std::span<double> x, std::vector<double>& residual,
                           std::vector<double>& solve_workspace,
                           util::ThreadPool* pool) const {
  residual.assign(b.begin(), b.end());
  matrix.MultiplyAccumulate(x, residual, -1.0);
  SolveParallel(residual, solve_workspace, pool);
  const double correction = NormInf(residual);
  Axpy(1.0, residual, x);
  chord_step_count_.fetch_add(1, std::memory_order_relaxed);
  return correction;
}

}  // namespace wavepipe::sparse

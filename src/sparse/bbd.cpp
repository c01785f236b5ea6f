#include "sparse/bbd.hpp"

#include <algorithm>
#include <functional>
#include <string>

#include "sparse/triplet.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace wavepipe::sparse {

std::size_t BbdPlan::LargestPiece() const {
  std::size_t largest = 0;
  for (const auto& interior : interiors) largest = std::max(largest, interior.size());
  return largest;
}

std::size_t BbdPlan::SmallestPiece() const {
  if (interiors.empty()) return 0;
  std::size_t smallest = interiors.front().size();
  for (const auto& interior : interiors) smallest = std::min(smallest, interior.size());
  return smallest;
}

double BbdPlan::Imbalance() const {
  std::size_t total = 0;
  for (const auto& interior : interiors) total += interior.size();
  if (total == 0 || interiors.empty()) return 1.0;
  const double ideal = static_cast<double>(total) / static_cast<double>(interiors.size());
  return static_cast<double>(LargestPiece()) / ideal;
}

bool BbdPlan::Validate(const CscMatrix& pattern) const {
  if (pattern.cols() != dimension || pattern.rows() != dimension) return false;
  if (static_cast<int>(piece_of.size()) != dimension) return false;
  if (static_cast<int>(local_index.size()) != dimension) return false;
  for (int col = 0; col < dimension; ++col) {
    const int pc = piece_of[col];
    if (pc == kInterface) continue;
    for (int k = pattern.col_begin(col); k < pattern.col_end(col); ++k) {
      const int pr = piece_of[pattern.row_of(k)];
      if (pr != kInterface && pr != pc) return false;  // interior-to-interior coupling
    }
  }
  return true;
}

void BbdStats::ExportCounters(util::telemetry::CounterRegistry& registry) const {
  registry.Count("partition.pieces", static_cast<std::uint64_t>(pieces));
  registry.Count("partition.interface_size", interface_size);
  registry.Value("partition.piece_imbalance", piece_imbalance);
  registry.Count("partition.full_factors", full_factor_count);
  registry.Count("partition.refactors", refactor_count);
  registry.Count("partition.solves", solve_count);
  registry.Count("partition.schur_factors", schur_factor_count);
  registry.Count("partition.schur_nnz", schur_nnz);
  registry.Value("partition.schur_seconds", schur_seconds);
  registry.Count("partition.piece_factor_flops", piece_factor_flops);
  registry.Count("partition.schur_assembly_flops", schur_assembly_flops);
  registry.Count("partition.schur_factor_flops", schur_factor_flops);
  registry.Count("partition.piece_solve_flops", piece_solve_flops);
}

void BbdSolver::Configure(std::shared_ptr<const BbdPlan> plan, const CscMatrix& pattern,
                          const SparseLu::Options& lu_options) {
  WP_ASSERT(plan != nullptr);
  if (!plan->Validate(pattern)) {
    throw Error("BbdSolver: pattern violates the plan's separator property");
  }
  plan_ = std::move(plan);
  lu_options_ = lu_options;
  factored_ = false;
  stats_ = BbdStats{};
  stats_.pieces = plan_->num_pieces;
  stats_.interface_size = plan_->interface_nodes.size();
  stats_.piece_imbalance = plan_->Imbalance();

  const int n_if = static_cast<int>(plan_->interface_nodes.size());
  pieces_.clear();
  pieces_.resize(static_cast<std::size_t>(plan_->num_pieces));

  // Sub-patterns.  Every global entry lands in exactly one block: the
  // separator property leaves no interior-to-interior coupling across pieces.
  std::vector<TripletBuilder> a_build, f_build, e_build;
  for (int k = 0; k < plan_->num_pieces; ++k) {
    Piece& piece = pieces_[static_cast<std::size_t>(k)];
    piece.globals = plan_->interiors[static_cast<std::size_t>(k)];
    const int nk = static_cast<int>(piece.globals.size());
    a_build.emplace_back(nk, nk);
    f_build.emplace_back(nk, n_if);
    e_build.emplace_back(n_if, nk);
  }
  TripletBuilder c_build(n_if, n_if);

  for (int col = 0; col < pattern.cols(); ++col) {
    const int pc = plan_->piece_of[col];
    const int lc = plan_->local_index[col];
    for (int k = pattern.col_begin(col); k < pattern.col_end(col); ++k) {
      const int row = pattern.row_of(k);
      const int pr = plan_->piece_of[row];
      const int lr = plan_->local_index[row];
      if (pc != BbdPlan::kInterface) {
        if (pr == pc) {
          a_build[static_cast<std::size_t>(pc)].AddPattern(lr, lc);
        } else {
          e_build[static_cast<std::size_t>(pc)].AddPattern(lr, lc);
        }
      } else if (pr != BbdPlan::kInterface) {
        f_build[static_cast<std::size_t>(pr)].AddPattern(lr, lc);
      } else {
        c_build.AddPattern(lr, lc);
      }
    }
  }

  // Compress and build the value scatter maps: src[local nnz] = global nnz.
  // Each global entry maps to exactly one block slot, so a second pattern
  // sweep with FindEntry() fills the maps completely.
  for (int k = 0; k < plan_->num_pieces; ++k) {
    Piece& piece = pieces_[static_cast<std::size_t>(k)];
    piece.a = a_build[static_cast<std::size_t>(k)].ToCsc();
    piece.f = f_build[static_cast<std::size_t>(k)].ToCsc();
    piece.e = e_build[static_cast<std::size_t>(k)].ToCsc();
    piece.a_src.assign(piece.a.num_nonzeros(), -1);
    piece.f_src.assign(piece.f.num_nonzeros(), -1);
    piece.e_src.assign(piece.e.num_nonzeros(), -1);
    piece.lu.Reset(lu_options_);
    piece.lu.set_ordering_cache(&ordering_cache_);
    piece.interface_rows.clear();
    for (int r : piece.e.row_idx()) piece.interface_rows.push_back(r);
    std::sort(piece.interface_rows.begin(), piece.interface_rows.end());
    piece.interface_rows.erase(
        std::unique(piece.interface_rows.begin(), piece.interface_rows.end()),
        piece.interface_rows.end());
  }
  c_ = c_build.ToCsc();
  c_src_.assign(c_.num_nonzeros(), -1);

  for (int col = 0; col < pattern.cols(); ++col) {
    const int pc = plan_->piece_of[col];
    const int lc = plan_->local_index[col];
    for (int k = pattern.col_begin(col); k < pattern.col_end(col); ++k) {
      const int row = pattern.row_of(k);
      const int pr = plan_->piece_of[row];
      const int lr = plan_->local_index[row];
      if (pc != BbdPlan::kInterface) {
        Piece& piece = pieces_[static_cast<std::size_t>(pc)];
        if (pr == pc) {
          piece.a_src[static_cast<std::size_t>(piece.a.FindEntry(lr, lc))] = k;
        } else {
          piece.e_src[static_cast<std::size_t>(piece.e.FindEntry(lr, lc))] = k;
        }
      } else if (pr != BbdPlan::kInterface) {
        Piece& piece = pieces_[static_cast<std::size_t>(pr)];
        piece.f_src[static_cast<std::size_t>(piece.f.FindEntry(lr, lc))] = k;
      } else {
        c_src_[static_cast<std::size_t>(c_.FindEntry(lr, lc))] = k;
      }
    }
  }

  // Structural Schur pattern: C's pattern, the diagonal, and — for every
  // interface column a piece couples into — all interface rows reachable
  // through that piece (the support of E_k · A_kk^{-1} · F_k(:,c)).  Fixed
  // across refactors; structural zeros are stored, never dropped, so the
  // pattern (and SparseLu's symbolic reuse) is stable.
  TripletBuilder schur_build(n_if, n_if);
  for (int c = 0; c < n_if; ++c) {
    schur_build.AddPattern(c, c);
    for (int k = c_.col_begin(c); k < c_.col_end(c); ++k) {
      schur_build.AddPattern(c_.row_of(k), c);
    }
    for (const Piece& piece : pieces_) {
      if (piece.f.col_begin(c) == piece.f.col_end(c)) continue;
      for (int r : piece.interface_rows) schur_build.AddPattern(r, c);
    }
  }
  schur_ = schur_build.ToCsc();
  stats_.schur_nnz = schur_.num_nonzeros();
  c_to_schur_.assign(c_.num_nonzeros(), -1);
  for (int c = 0; c < n_if; ++c) {
    for (int k = c_.col_begin(c); k < c_.col_end(c); ++k) {
      c_to_schur_[static_cast<std::size_t>(k)] = schur_.FindEntry(c_.row_of(k), c);
    }
  }
  schur_lu_.Reset(lu_options_);
  schur_work_.assign(static_cast<std::size_t>(n_if), 0.0);
}

void BbdSolver::ScatterValues(const CscMatrix& matrix) {
  const auto src = matrix.values();
  for (Piece& piece : pieces_) {
    auto scatter = [&src](CscMatrix& block, const std::vector<int>& map) {
      auto dst = block.mutable_values();
      for (std::size_t i = 0; i < map.size(); ++i) dst[i] = src[map[i]];
    };
    scatter(piece.a, piece.a_src);
    scatter(piece.f, piece.f_src);
    scatter(piece.e, piece.e_src);
  }
  auto dst = c_.mutable_values();
  for (std::size_t i = 0; i < c_src_.size(); ++i) dst[i] = src[c_src_[i]];
}

void BbdSolver::FactorOrRefactor(const CscMatrix& matrix, util::ThreadPool* pool) {
  WP_ASSERT(configured());
  WP_ASSERT(matrix.cols() == plan_->dimension);
  factored_ = false;
  ScatterValues(matrix);

  std::uint64_t full_before = 0, re_before = 0;
  for (const Piece& piece : pieces_) {
    full_before += piece.lu.stats().factor_count;
    re_before += piece.lu.stats().refactor_count;
  }

  {
    WP_TSPAN("factor", "bbd_pieces");
    auto factor_piece = [](Piece& piece) {
      if (piece.globals.empty()) return;
      const std::uint64_t flops_before = piece.lu.stats().factor_flops;
      // Pieces are the parallel grain; each factors with the serial kernels.
      piece.lu.FactorOrRefactor(piece.a);
      const auto& s = piece.lu.stats();
      piece.factor_flops = static_cast<double>(s.factor_flops - flops_before);
      piece.solve_flops =
          static_cast<double>(s.nnz_l + s.nnz_u) + static_cast<double>(piece.globals.size());
    };
    // Every piece finishes before the first failure (by piece order) is
    // rethrown, matching the serial loop.
    util::ThreadPool::ForkJoin(pool, pieces_.size(),
                               [&](std::size_t k) { factor_piece(pieces_[k]); });
  }

  std::uint64_t full_after = 0, re_after = 0, factor_flops = 0;
  for (const Piece& piece : pieces_) {
    full_after += piece.lu.stats().factor_count;
    re_after += piece.lu.stats().refactor_count;
    factor_flops += static_cast<std::uint64_t>(piece.factor_flops);
  }
  stats_.piece_factor_flops += factor_flops;
  if (full_after > full_before) {
    stats_.full_factor_count += 1;
  } else {
    stats_.refactor_count += 1;
  }
  (void)re_before;
  (void)re_after;

  if (!plan_->interface_nodes.empty()) {
    util::WallTimer schur_timer;
    AssembleSchur(pool);
    {
      WP_TSPAN("factor", "schur_factor");
      // Fault site: the interface (or a degenerate piece) block turns
      // singular.  Surfaces as SingularMatrixError so Newton's step-shrink /
      // rescue ladder handles a failed partitioned factorization exactly
      // like a failed monolithic one.
      if (WP_FAULT_POINT("schur.factor")) {
        throw SingularMatrixError("injected schur.factor pivot failure");
      }
      const std::uint64_t flops_before = schur_lu_.stats().factor_flops;
      schur_lu_.FactorOrRefactor(schur_);
      const auto& s = schur_lu_.stats();
      schur_factor_flops_last_ = static_cast<double>(s.factor_flops - flops_before);
      schur_solve_flops_ = static_cast<double>(s.nnz_l + s.nnz_u) +
                           static_cast<double>(plan_->interface_nodes.size());
    }
    stats_.schur_factor_count += 1;
    stats_.schur_factor_flops += static_cast<std::uint64_t>(schur_factor_flops_last_);
    stats_.schur_seconds += schur_timer.Seconds();
  }
  factored_ = true;
}

void BbdSolver::AssembleSchur(util::ThreadPool* pool) {
  WP_TSPAN("factor", "schur_assembly");
  const int n_if = static_cast<int>(plan_->interface_nodes.size());
  std::uint64_t solve_flops_before = 0;
  for (const Piece& piece : pieces_) solve_flops_before += piece.lu.stats().solve_flops;

  schur_.ZeroValues();
  auto schur_values = schur_.mutable_values();

  // Columns are independent: each computes its own dense interface column
  // and writes a disjoint slice of schur_'s value array.  Accumulation order
  // within a column is fixed (pieces ascending), so chunking over a pool
  // changes nothing but wall clock.
  auto do_columns = [&](int col_begin, int col_end) {
    std::vector<double> dense(static_cast<std::size_t>(n_if), 0.0);
    std::vector<double> w;
    std::vector<double> work;
    for (int c = col_begin; c < col_end; ++c) {
      std::fill(dense.begin(), dense.end(), 0.0);
      for (const Piece& piece : pieces_) {
        const int fb = piece.f.col_begin(c);
        const int fe = piece.f.col_end(c);
        if (fb == fe) continue;
        w.assign(piece.globals.size(), 0.0);
        for (int k = fb; k < fe; ++k) w[piece.f.row_of(k)] = piece.f.value_of(k);
        piece.lu.Solve(w, work);  // w = A_kk^{-1} F_k(:, c)
        piece.e.MultiplyAccumulate(w, dense, -1.0);
      }
      for (int k = schur_.col_begin(c); k < schur_.col_end(c); ++k) {
        schur_values[k] = dense[schur_.row_of(k)];
      }
    }
  };

  if (pool != nullptr && n_if > 1) {
    const int chunks =
        std::min<int>(static_cast<int>(util::ThreadPool::Participants(pool)) * 2, n_if);
    const int per_chunk = (n_if + chunks - 1) / chunks;
    util::ThreadPool::ForkJoin(
        pool, static_cast<std::size_t>((n_if + per_chunk - 1) / per_chunk),
        [&](std::size_t chunk) {
          const int begin = static_cast<int>(chunk) * per_chunk;
          do_columns(begin, std::min(begin + per_chunk, n_if));
        });
  } else {
    do_columns(0, n_if);
  }

  // S = C - sum_k E_k A_kk^{-1} F_k: the dense columns above wrote the sum
  // term; add C's values on top (serial, fixed order).
  for (std::size_t i = 0; i < c_src_.size(); ++i) {
    schur_values[c_to_schur_[i]] += c_.value_of(static_cast<int>(i));
  }

  std::uint64_t solve_flops_after = 0;
  for (const Piece& piece : pieces_) solve_flops_after += piece.lu.stats().solve_flops;
  stats_.schur_assembly_flops += solve_flops_after - solve_flops_before;
  schur_assembly_flops_last_ = static_cast<double>(solve_flops_after - solve_flops_before);
}

void BbdSolver::Solve(std::span<double> b, util::ThreadPool* pool) {
  WP_ASSERT(factored_);
  WP_ASSERT(static_cast<int>(b.size()) == plan_->dimension);
  WP_TSPAN("solve", "bbd_solve");
  const std::size_t n_if = plan_->interface_nodes.size();
  std::uint64_t solve_flops_before = 0;
  for (const Piece& piece : pieces_) solve_flops_before += piece.lu.stats().solve_flops;

  auto run_pieces = [&](auto&& body) {
    util::ThreadPool::ForkJoin(pool, pieces_.size(),
                               [&](std::size_t k) { body(pieces_[k]); });
  };

  // Forward sweep: z_k = A_kk^{-1} b_k, all pieces independent.
  run_pieces([&b](Piece& piece) {
    if (piece.globals.empty()) return;
    piece.z.resize(piece.globals.size());
    for (std::size_t i = 0; i < piece.globals.size(); ++i) piece.z[i] = b[piece.globals[i]];
    piece.lu.Solve(piece.z, piece.solve_work);
  });

  if (n_if > 0) {
    // Interface residual and solve: g = b_c - sum_k E_k z_k; x_c = S^{-1} g.
    schur_work_.resize(n_if);
    for (std::size_t i = 0; i < n_if; ++i) schur_work_[i] = b[plan_->interface_nodes[i]];
    for (Piece& piece : pieces_) {
      if (piece.globals.empty()) continue;
      piece.e.MultiplyAccumulate(piece.z, schur_work_, -1.0);
    }
    std::vector<double> schur_scratch;
    schur_lu_.Solve(schur_work_, schur_scratch);

    // Back-substitution: x_k = A_kk^{-1} (b_k - F_k x_c).  Re-solving here
    // instead of keeping W_k = A_kk^{-1} F_k trades one extra sweep per
    // solve for not storing a dense n_k x n_if map per piece.
    run_pieces([&b, this](Piece& piece) {
      if (piece.globals.empty()) return;
      for (std::size_t i = 0; i < piece.globals.size(); ++i) piece.z[i] = b[piece.globals[i]];
      piece.f.MultiplyAccumulate(schur_work_, piece.z, -1.0);
      piece.lu.Solve(piece.z, piece.solve_work);
      for (std::size_t i = 0; i < piece.globals.size(); ++i) b[piece.globals[i]] = piece.z[i];
    });
    for (std::size_t i = 0; i < n_if; ++i) b[plan_->interface_nodes[i]] = schur_work_[i];
  } else {
    for (Piece& piece : pieces_) {
      for (std::size_t i = 0; i < piece.globals.size(); ++i) b[piece.globals[i]] = piece.z[i];
    }
  }

  std::uint64_t solve_flops_after = 0;
  for (const Piece& piece : pieces_) solve_flops_after += piece.lu.stats().solve_flops;
  stats_.piece_solve_flops += solve_flops_after - solve_flops_before;
  stats_.solve_count += 1;
}

double BbdSolver::ModelFactorSolveMakespanFlops(int threads) const {
  WP_ASSERT(threads >= 1);
  // LPT (longest-processing-time) list schedule: deterministic lower-bound
  // style makespan for independent piece tasks on `threads` workers.
  auto lpt = [threads](std::vector<double> costs) {
    std::sort(costs.begin(), costs.end(), std::greater<double>());
    std::vector<double> bins(static_cast<std::size_t>(threads), 0.0);
    for (double cost : costs) {
      *std::min_element(bins.begin(), bins.end()) += cost;
    }
    return *std::max_element(bins.begin(), bins.end());
  };
  std::vector<double> factor_costs, solve_costs;
  double border_flops = 0.0;
  for (const Piece& piece : pieces_) {
    factor_costs.push_back(piece.factor_flops);
    solve_costs.push_back(piece.solve_flops);
    border_flops += static_cast<double>(piece.e.num_nonzeros() + piece.f.num_nonzeros());
  }
  // Factor phase: parallel piece factors, column-parallel Schur assembly,
  // serial Schur factor.  Solve phase: two parallel piece sweeps around the
  // serial interface gather/solve.
  return lpt(factor_costs) + schur_assembly_flops_last_ / threads +
         schur_factor_flops_last_ + 2.0 * lpt(solve_costs) + schur_solve_flops_ +
         border_flops;
}

double BbdSolver::SerialFactorSolveFlops() const {
  double total = schur_assembly_flops_last_ + schur_factor_flops_last_ + schur_solve_flops_;
  for (const Piece& piece : pieces_) {
    total += piece.factor_flops + 2.0 * piece.solve_flops +
             static_cast<double>(piece.e.num_nonzeros() + piece.f.num_nonzeros());
  }
  return total;
}

}  // namespace wavepipe::sparse

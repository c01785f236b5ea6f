#include "sparse/lu.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "sparse/dense.hpp"
#include "sparse/triplet.hpp"
#include "sparse/vector_ops.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wavepipe::sparse {
namespace {

CscMatrix Tridiagonal(int n, double diag = 2.0, double off = -1.0) {
  TripletBuilder t(n, n);
  for (int i = 0; i < n; ++i) {
    t.Add(i, i, diag);
    if (i > 0) t.Add(i, i - 1, off);
    if (i + 1 < n) t.Add(i, i + 1, off);
  }
  return t.ToCsc();
}

/// Random diagonally-bumped sparse matrix with a guaranteed full diagonal.
CscMatrix RandomSparse(int n, double density, util::Rng& rng, double diag_boost = 4.0) {
  TripletBuilder t(n, n);
  for (int i = 0; i < n; ++i) t.Add(i, i, diag_boost + rng.Uniform(-1, 1));
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      if (r != c && rng.Bernoulli(density)) t.Add(r, c, rng.Uniform(-1, 1));
    }
  }
  return t.ToCsc();
}

std::vector<double> RandomVector(int n, util::Rng& rng) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = rng.Uniform(-2, 2);
  return v;
}

double SolveResidualInf(const CscMatrix& a, const std::vector<double>& x,
                        const std::vector<double>& b) {
  std::vector<double> r(b);
  a.MultiplyAccumulate(x, r, -1.0);
  return NormInf(r);
}

TEST(SparseLu, SolvesTridiagonal) {
  const CscMatrix a = Tridiagonal(10);
  SparseLu lu;
  lu.Factor(a);
  std::vector<double> b(10, 1.0);
  std::vector<double> x = b;
  lu.Solve(x);
  EXPECT_LT(SolveResidualInf(a, x, b), 1e-12);
}

TEST(SparseLu, MatchesDenseReference) {
  util::Rng rng(99);
  const CscMatrix a = RandomSparse(15, 0.3, rng);
  const std::vector<double> b = RandomVector(15, rng);

  SparseLu lu;
  lu.Factor(a);
  std::vector<double> x_sparse = b;
  lu.Solve(x_sparse);

  DenseLu dense(DenseMatrix::FromCsc(a));
  std::vector<double> x_dense = b;
  dense.Solve(x_dense);

  for (int i = 0; i < 15; ++i) EXPECT_NEAR(x_sparse[i], x_dense[i], 1e-9) << i;
}

TEST(SparseLu, RequiresPivotingOffDiagonal) {
  // [[0, 1], [1, 0]] has a structurally zero diagonal.
  TripletBuilder t(2, 2);
  t.Add(0, 1, 1.0);
  t.Add(1, 0, 1.0);
  const CscMatrix a = t.ToCsc();
  SparseLu lu;
  lu.Factor(a);
  std::vector<double> x{5.0, 7.0};
  lu.Solve(x);
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 5.0, 1e-12);
}

TEST(SparseLu, SingularThrowsWithColumn) {
  TripletBuilder t(3, 3);
  t.Add(0, 0, 1.0);
  t.Add(1, 1, 1.0);
  // Column 2 empty -> structurally singular.
  const CscMatrix a = t.ToCsc();
  EXPECT_THROW(
      {
        SparseLu lu;
        lu.Factor(a);
      },
      SingularMatrixError);
}

TEST(SparseLu, NumericallySingularThrows) {
  TripletBuilder t(2, 2);
  t.Add(0, 0, 1.0);
  t.Add(0, 1, 1.0);
  t.Add(1, 0, 1.0);
  t.Add(1, 1, 1.0);  // rank 1
  SparseLu lu;
  EXPECT_THROW(lu.Factor(t.ToCsc()), SingularMatrixError);
}

TEST(SparseLu, RefactorMatchesFreshFactor) {
  util::Rng rng(7);
  CscMatrix a = RandomSparse(20, 0.2, rng);
  SparseLu lu;
  lu.Factor(a);

  // Same pattern, new values.
  CscMatrix a2 = a;
  auto values = a2.mutable_values();
  for (double& v : values) v *= rng.Uniform(0.5, 1.5);

  ASSERT_TRUE(lu.Refactor(a2));
  const std::vector<double> b = RandomVector(20, rng);
  std::vector<double> x = b;
  lu.Solve(x);
  EXPECT_LT(SolveResidualInf(a2, x, b), 1e-10);
  EXPECT_EQ(lu.stats().refactor_count, 1u);
  EXPECT_EQ(lu.stats().factor_count, 1u);
}

// A copy of another instance's factorization refactors exactly like the
// original would: same pivots, same bits, and no symbolic pass of its own.
TEST(SparseLu, CopiedFactorizationRefactorsBitIdentically) {
  util::Rng rng(11);
  const CscMatrix a = RandomSparse(24, 0.15, rng);
  SparseLu source;
  source.Factor(a);

  CscMatrix a2 = a;
  for (double& v : a2.mutable_values()) v *= rng.Uniform(0.5, 1.5);
  SparseLu copy;
  copy.CopyFactorization(source);
  ASSERT_TRUE(copy.Refactor(a2));
  ASSERT_TRUE(source.Refactor(a2));
  EXPECT_EQ(copy.stats().factor_count, 0u);
  EXPECT_EQ(copy.stats().refactor_count, 1u);
  EXPECT_EQ(copy.stats().nnz_l, source.stats().nnz_l);

  const std::vector<double> b = RandomVector(24, rng);
  std::vector<double> x_copy = b;
  std::vector<double> x_source = b;
  copy.Solve(x_copy);
  source.Solve(x_source);
  EXPECT_EQ(x_copy, x_source);
  EXPECT_LT(SolveResidualInf(a2, x_copy, b), 1e-10);
}

// Numeric factors saved after one Refactor() and loaded back after others
// reproduce that Refactor()'s solves bit for bit.
TEST(SparseLu, SavedNumericFactorsReloadBitIdentically) {
  util::Rng rng(23);
  const CscMatrix a = RandomSparse(30, 0.15, rng);
  SparseLu lu;
  lu.Factor(a);
  CscMatrix a1 = a;
  for (double& v : a1.mutable_values()) v *= rng.Uniform(0.5, 1.5);
  ASSERT_TRUE(lu.Refactor(a1));
  EXPECT_EQ(lu.numeric_size(), lu.stats().nnz_l + lu.stats().nnz_u);
  std::vector<double> saved(lu.numeric_size());
  lu.SaveNumeric(saved);

  const std::vector<double> b = RandomVector(30, rng);
  std::vector<double> x_before = b;
  lu.Solve(x_before);

  const std::uint64_t generation = lu.symbolic_generation();
  for (int k = 0; k < 3; ++k) {
    CscMatrix other = a;
    for (double& v : other.mutable_values()) v *= rng.Uniform(0.5, 1.5);
    ASSERT_TRUE(lu.Refactor(other));
  }
  EXPECT_EQ(lu.symbolic_generation(), generation);
  std::vector<double> x_other = b;
  lu.Solve(x_other);
  ASSERT_NE(x_other, x_before);

  lu.LoadNumeric(saved);
  std::vector<double> x_after = b;
  lu.Solve(x_after);
  EXPECT_EQ(x_after, x_before);
}

TEST(SparseLu, SymbolicGenerationBumpsOnEverySymbolicChange) {
  const CscMatrix a = Tridiagonal(6);
  SparseLu lu;
  const std::uint64_t g0 = lu.symbolic_generation();
  lu.Factor(a);
  const std::uint64_t g1 = lu.symbolic_generation();
  EXPECT_NE(g1, g0);
  ASSERT_TRUE(lu.Refactor(a));
  lu.FactorOrRefactor(a);
  EXPECT_EQ(lu.symbolic_generation(), g1);

  // A throwing Factor() still starts a new generation.
  TripletBuilder t(6, 6);
  for (int i = 0; i < 5; ++i) t.Add(i, i, 1.0);
  t.Add(5, 0, 1.0);  // column 5 empty: structurally singular
  EXPECT_THROW(lu.Factor(t.ToCsc()), SingularMatrixError);
  const std::uint64_t g2 = lu.symbolic_generation();
  EXPECT_NE(g2, g1);

  SparseLu source;
  source.Factor(a);
  lu.CopyFactorization(source);
  const std::uint64_t g3 = lu.symbolic_generation();
  EXPECT_NE(g3, g2);

  lu.Reset(SparseLu::Options{});
  EXPECT_NE(lu.symbolic_generation(), g3);
  EXPECT_FALSE(lu.factored());
}

TEST(SparseLu, RefactorDetectsPivotDegradation) {
  // Factor a well-conditioned matrix, then refactor with values that make
  // the reused pivot catastrophically small.
  TripletBuilder t(2, 2);
  t.Add(0, 0, 4.0);
  t.Add(0, 1, 1.0);
  t.Add(1, 0, 1.0);
  t.Add(1, 1, 4.0);
  CscMatrix a = t.ToCsc();
  SparseLu lu;
  lu.Factor(a);

  CscMatrix bad = a;
  auto values = bad.mutable_values();
  values[bad.FindEntry(0, 0)] = 1e-16;  // pivot (0,0) collapses
  values[bad.FindEntry(1, 0)] = 1.0;
  EXPECT_FALSE(lu.Refactor(bad));
  EXPECT_FALSE(lu.factored());

  // FactorOrRefactor must recover by running a full factorization.
  lu.FactorOrRefactor(bad);
  EXPECT_TRUE(lu.factored());
  std::vector<double> x{1.0, 1.0};
  std::vector<double> b = x;
  lu.Solve(x);
  EXPECT_LT(SolveResidualInf(bad, x, b), 1e-10);
}

TEST(SparseLu, RefactorPivotTolTripRecoversViaFreshFactor) {
  // Regression: a pivot that is perfectly nonsingular in absolute terms but
  // small RELATIVE to its column must trip refactor_pivot_tol, and
  // FactorOrRefactor must transparently fall back to a fresh Factor() (which
  // re-pivots) instead of returning garbage triangles.
  TripletBuilder t(2, 2);
  t.Add(0, 0, 4.0);
  t.Add(0, 1, 1.0);
  t.Add(1, 0, 1.0);
  t.Add(1, 1, 4.0);
  CscMatrix a = t.ToCsc();

  SparseLu::Options options;
  options.refactor_pivot_tol = 1e-2;  // strict relative-quality gate
  SparseLu lu(options);
  lu.Factor(a);
  const auto factors_before = lu.stats().factor_count;

  // Pivot (0,0) becomes 1e-3 against a column max of 1.0: far from singular,
  // but below the 1e-2 relative gate.
  CscMatrix degraded = a;
  auto values = degraded.mutable_values();
  values[degraded.FindEntry(0, 0)] = 1e-3;
  EXPECT_FALSE(lu.Refactor(degraded));
  EXPECT_FALSE(lu.factored());

  lu.FactorOrRefactor(degraded);
  EXPECT_TRUE(lu.factored());
  EXPECT_EQ(lu.stats().factor_count, factors_before + 1);  // full factor, not refactor

  std::vector<double> b{1.0, 2.0};
  std::vector<double> x = b;
  lu.Solve(x);
  EXPECT_LT(SolveResidualInf(degraded, x, b), 1e-10);
}

TEST(SparseLu, ConcurrentSolvesWithPrivateWorkspaces) {
  // Solve() is const and must be safe from many threads sharing one
  // factorization, each bringing its own workspace (the WavePipe usage).
  const int n = 64;
  const CscMatrix a = Tridiagonal(n);
  SparseLu lu;
  lu.Factor(a);

  DenseLu dense(DenseMatrix::FromCsc(a));

  constexpr int kThreads = 4;
  constexpr int kSolvesPerThread = 25;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      std::vector<double> workspace;
      for (int s = 0; s < kSolvesPerThread; ++s) {
        std::vector<double> b(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) b[i] = std::sin(0.1 * (i + tid) + s);
        std::vector<double> x = b;
        lu.Solve(x, workspace);
        std::vector<double> x_ref = b;
        dense.Solve(x_ref);
        for (int i = 0; i < n; ++i) {
          if (std::abs(x[i] - x_ref[i]) > 1e-9) ++mismatches[tid];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int tid = 0; tid < kThreads; ++tid) EXPECT_EQ(mismatches[tid], 0) << tid;
  // Atomic tallies: no lost updates across concurrent solves.
  EXPECT_EQ(lu.stats().solve_count,
            static_cast<std::uint64_t>(kThreads * kSolvesPerThread));
}

TEST(SparseLu, IterativeRefinementImproves) {
  util::Rng rng(3);
  const CscMatrix a = RandomSparse(30, 0.15, rng);
  const std::vector<double> b = RandomVector(30, rng);
  SparseLu lu;
  lu.Factor(a);
  std::vector<double> x = b;
  lu.Solve(x);
  const double correction = lu.Refine(a, b, x);
  EXPECT_LT(correction, 1e-8);  // already nearly exact
  EXPECT_LT(SolveResidualInf(a, x, b), 1e-11);
}

TEST(SparseLu, StatsAccumulate) {
  const CscMatrix a = Tridiagonal(8);
  SparseLu lu;
  lu.Factor(a);
  std::vector<double> x(8, 1.0);
  lu.Solve(x);
  lu.Solve(x);
  EXPECT_EQ(lu.stats().solve_count, 2u);
  EXPECT_GT(lu.stats().nnz_u, 0u);
  EXPECT_GT(lu.stats().factor_flops, 0u);
}

TEST(SparseLu, OneByOne) {
  TripletBuilder t(1, 1);
  t.Add(0, 0, 5.0);
  SparseLu lu;
  lu.Factor(t.ToCsc());
  std::vector<double> x{10.0};
  lu.Solve(x);
  EXPECT_DOUBLE_EQ(x[0], 2.0);
}

struct LuParam {
  unsigned seed;
  int n;
  double density;
  SparseLu::Options::Ordering ordering;
};

class RandomLuTest : public ::testing::TestWithParam<LuParam> {};

// Property: for random nonsingular sparse matrices under every ordering,
// Factor+Solve leaves residual ~0 and Refactor with perturbed values agrees
// with the dense reference.
TEST_P(RandomLuTest, FactorSolveRefactorProperty) {
  const LuParam p = GetParam();
  util::Rng rng(p.seed);
  const CscMatrix a = RandomSparse(p.n, p.density, rng);
  const std::vector<double> b = RandomVector(p.n, rng);

  SparseLu::Options options;
  options.ordering = p.ordering;
  SparseLu lu(options);
  lu.Factor(a);
  std::vector<double> x = b;
  lu.Solve(x);
  EXPECT_LT(SolveResidualInf(a, x, b), 1e-9 * std::max(1.0, NormInf(b)));

  CscMatrix a2 = a;
  for (double& v : a2.mutable_values()) v += rng.Uniform(-0.05, 0.05);
  if (lu.Refactor(a2)) {
    std::vector<double> x2 = b;
    lu.Solve(x2);
    EXPECT_LT(SolveResidualInf(a2, x2, b), 1e-9 * std::max(1.0, NormInf(b)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomLuTest,
    ::testing::Values(
        LuParam{1, 5, 0.5, SparseLu::Options::Ordering::kMinimumDegree},
        LuParam{2, 12, 0.3, SparseLu::Options::Ordering::kMinimumDegree},
        LuParam{3, 25, 0.15, SparseLu::Options::Ordering::kMinimumDegree},
        LuParam{4, 50, 0.08, SparseLu::Options::Ordering::kMinimumDegree},
        LuParam{5, 25, 0.15, SparseLu::Options::Ordering::kNatural},
        LuParam{6, 25, 0.15, SparseLu::Options::Ordering::kRcm},
        LuParam{7, 80, 0.05, SparseLu::Options::Ordering::kMinimumDegree},
        LuParam{8, 40, 0.1, SparseLu::Options::Ordering::kRcm},
        LuParam{9, 40, 0.1, SparseLu::Options::Ordering::kNatural},
        LuParam{10, 100, 0.03, SparseLu::Options::Ordering::kMinimumDegree}));

}  // namespace
}  // namespace wavepipe::sparse

#include "sparse/ordering.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <set>

#include "circuits/generators.hpp"
#include "engine/mna.hpp"
#include "sparse/csc.hpp"
#include "sparse/triplet.hpp"
#include "util/rng.hpp"

namespace wavepipe::sparse {
namespace {

// Reference minimum degree by eager elimination: each vertex keeps its
// elimination-graph neighbours in a std::set, and eliminating a vertex
// cliques its neighbourhood.  The pivot is the live vertex of smallest
// degree, ties to the lowest index.  MinimumDegreeOrder must return this
// exact permutation: every factor, waveform and counter of a run depends
// on it.
std::vector<int> ReferenceMinimumDegreeOrder(const CscMatrix& matrix) {
  const CscMatrix sym = matrix.SymmetrizedPattern();
  const int n = sym.cols();
  std::vector<std::set<int>> adj(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) {
    for (int k = sym.col_begin(c); k < sym.col_end(c); ++k) {
      if (sym.row_of(k) != c) adj[c].insert(sym.row_of(k));
    }
  }
  using Entry = std::pair<int, int>;  // (degree, vertex)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  std::vector<int> degree(static_cast<std::size_t>(n));
  std::vector<bool> eliminated(static_cast<std::size_t>(n), false);
  for (int v = 0; v < n; ++v) {
    degree[v] = static_cast<int>(adj[v].size());
    heap.emplace(degree[v], v);
  }
  std::vector<int> order;
  while (!heap.empty()) {
    const auto [deg, v] = heap.top();
    heap.pop();
    if (eliminated[v] || deg != degree[v]) continue;
    eliminated[v] = true;
    order.push_back(v);
    const std::vector<int> nbrs(adj[v].begin(), adj[v].end());
    for (int u : nbrs) adj[u].erase(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        if (adj[nbrs[i]].insert(nbrs[j]).second) adj[nbrs[j]].insert(nbrs[i]);
      }
    }
    for (int u : nbrs) {
      const int d = static_cast<int>(adj[u].size());
      if (d != degree[u]) {
        degree[u] = d;
        heap.emplace(d, u);
      }
    }
    adj[v].clear();
  }
  return order;
}

void ExpectReferenceOrder(const CscMatrix& matrix) {
  const std::vector<int> order = MinimumDegreeOrder(matrix);
  EXPECT_TRUE(IsPermutation(order, matrix.cols()));
  EXPECT_EQ(order, ReferenceMinimumDegreeOrder(matrix));
}

CscMatrix CircuitPattern(const circuits::GeneratedCircuit& gen) {
  const engine::MnaStructure mna(*gen.circuit);
  return mna.pattern();
}

CscMatrix TridiagonalPattern(int n) {
  TripletBuilder t(n, n);
  for (int i = 0; i < n; ++i) {
    t.Add(i, i, 2.0);
    if (i > 0) t.Add(i, i - 1, -1.0);
    if (i + 1 < n) t.Add(i, i + 1, -1.0);
  }
  return t.ToCsc();
}

CscMatrix ArrowPattern(int n) {
  // Dense first row/col + diagonal: natural order fills in completely,
  // minimum degree should eliminate the hub last.
  TripletBuilder t(n, n);
  for (int i = 0; i < n; ++i) {
    t.Add(i, i, 4.0);
    if (i > 0) {
      t.Add(0, i, 1.0);
      t.Add(i, 0, 1.0);
    }
  }
  return t.ToCsc();
}

TEST(Ordering, NaturalIsIdentity) {
  const auto order = NaturalOrder(5);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Ordering, IsPermutationValidator) {
  EXPECT_TRUE(IsPermutation({2, 0, 1}, 3));
  EXPECT_FALSE(IsPermutation({0, 0, 1}, 3));
  EXPECT_FALSE(IsPermutation({0, 1}, 3));
  EXPECT_FALSE(IsPermutation({0, 1, 3}, 3));
}

TEST(Ordering, MinimumDegreeIsPermutation) {
  const auto order = MinimumDegreeOrder(TridiagonalPattern(20));
  EXPECT_TRUE(IsPermutation(order, 20));
}

TEST(Ordering, MinimumDegreeEliminatesHubLast) {
  const auto order = MinimumDegreeOrder(ArrowPattern(12));
  ASSERT_TRUE(IsPermutation(order, 12));
  // The hub (vertex 0, degree 11) must be among the last two eliminated
  // (ties with the final leaf are broken arbitrarily).
  EXPECT_TRUE(order[11] == 0 || order[10] == 0);
}

TEST(Ordering, RcmIsPermutation) {
  const auto order = ReverseCuthillMcKeeOrder(ArrowPattern(10));
  EXPECT_TRUE(IsPermutation(order, 10));
}

TEST(Ordering, RcmHandlesDisconnectedGraph) {
  TripletBuilder t(6, 6);
  // Two disjoint triangles.
  for (int base : {0, 3}) {
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) t.Add(base + i, base + j, 1.0);
    }
  }
  const auto order = ReverseCuthillMcKeeOrder(t.ToCsc());
  EXPECT_TRUE(IsPermutation(order, 6));
  const auto md = MinimumDegreeOrder(t.ToCsc());
  EXPECT_TRUE(IsPermutation(md, 6));
}

TEST(Ordering, SingletonAndEmpty) {
  EXPECT_TRUE(MinimumDegreeOrder(TridiagonalPattern(1)) == std::vector<int>{0});
  EXPECT_TRUE(MinimumDegreeOrder(CscMatrix::Identity(0)).empty());
}

class RandomOrderingTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomOrderingTest, AlwaysPermutations) {
  util::Rng rng(GetParam());
  const int n = 5 + static_cast<int>(rng.NextBelow(30));
  TripletBuilder t(n, n);
  for (int i = 0; i < n; ++i) t.Add(i, i, 1.0);
  const int extra = n * 2;
  for (int k = 0; k < extra; ++k) {
    const int r = static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(n)));
    const int c = static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(n)));
    t.Add(r, c, 1.0);
  }
  const CscMatrix m = t.ToCsc();
  ExpectReferenceOrder(m);
  EXPECT_TRUE(IsPermutation(ReverseCuthillMcKeeOrder(m), n));
}

// Unsymmetric patterns up to ~400 unknowns, some diagonal entries missing,
// many triplets repeated: a tie-break or degree count that drifts shows here.
TEST_P(RandomOrderingTest, UnsymmetricPatternsMatchReference) {
  util::Rng rng(1000u + GetParam());
  const int n = 50 + static_cast<int>(rng.NextBelow(351));
  const int per_row = 1 + static_cast<int>(rng.NextBelow(6));
  TripletBuilder t(n, n);
  for (int i = 0; i < n; ++i) {
    if (rng.NextBelow(8) != 0) t.Add(i, i, 1.0);
  }
  for (int k = 0; k < n * per_row; ++k) {
    const int r = static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(n)));
    // Mostly local couplings, like circuit nets, plus some long ones.
    const int span = rng.NextBelow(4) == 0 ? n : 8;
    const int c = std::min(n - 1, r + static_cast<int>(rng.NextBelow(
                                          static_cast<std::uint64_t>(span))));
    t.Add(r, c, 1.0);
    if (rng.NextBelow(3) == 0) t.Add(r, c, 1.0);  // duplicate triplet
  }
  ExpectReferenceOrder(t.ToCsc());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomOrderingTest, ::testing::Range(1u, 13u));

TEST(Ordering, MinimumDegreeMatchesReferenceOnEdgeCases) {
  ExpectReferenceOrder(CscMatrix::Identity(0));
  ExpectReferenceOrder(CscMatrix::Identity(1));
  ExpectReferenceOrder(CscMatrix::Identity(9));  // diagonal only
  ExpectReferenceOrder(ArrowPattern(12));
  ExpectReferenceOrder(TridiagonalPattern(20));

  TripletBuilder complete(7, 7);
  for (int i = 0; i < 7; ++i) {
    for (int j = 0; j < 7; ++j) complete.Add(i, j, 1.0);
  }
  ExpectReferenceOrder(complete.ToCsc());

  // Three components: a path, an isolated vertex and a star, interleaved.
  TripletBuilder parts(10, 10);
  for (int i = 0; i < 10; ++i) parts.Add(i, i, 1.0);
  for (const auto& [a, b] : {std::pair{0, 3}, {3, 6}, {6, 9}, {1, 2}, {1, 5}, {1, 7}, {1, 8}}) {
    parts.Add(a, b, 1.0);
    parts.Add(b, a, 1.0);
  }
  ExpectReferenceOrder(parts.ToCsc());
}

TEST(Ordering, MinimumDegreeMatchesReferenceOnRcMeshes) {
  for (const int side : {8, 24, 48}) {
    SCOPED_TRACE(side);
    ExpectReferenceOrder(CircuitPattern(circuits::MakeRcMesh(side, side)));
  }
}

TEST(Ordering, MinimumDegreeMatchesReferenceOnCircuitPatterns) {
  ExpectReferenceOrder(CircuitPattern(circuits::MakeInverterChain(30)));
  ExpectReferenceOrder(CircuitPattern(circuits::MakeParasiticLadder(8, 6)));
}

}  // namespace
}  // namespace wavepipe::sparse

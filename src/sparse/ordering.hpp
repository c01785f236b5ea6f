// Fill-reducing column orderings for sparse LU.
//
// MNA matrices of real circuits are nearly structurally symmetric, so a
// symmetric minimum-degree ordering on the pattern of A + A^T works well —
// the same choice classic SPICE makes (Markowitz on a nearly symmetric
// pattern degenerates to minimum degree).
#pragma once

#include <vector>

namespace wavepipe::sparse {

class CscMatrix;

/// Minimum-degree ordering of the undirected graph of A + A^T.
/// Returns a permutation `order` with order[k] = the k-th pivot, i.e. columns
/// of A should be eliminated in the sequence order[0], order[1], ...
/// Exact greedy minimum degree: every step eliminates the live vertex of
/// smallest exact degree in the elimination graph, ties to the lowest index.
/// The elimination graph is kept as a quotient graph (each eliminated pivot
/// becomes an element that absorbs the elements it covers), so elimination
/// never forms a clique; degrees are recounted exactly with a stamped
/// marker.  No approximate degrees, mass or multiple elimination: each of
/// those picks a different order, and every factor depends on this one.
std::vector<int> MinimumDegreeOrder(const CscMatrix& matrix);

/// Natural (identity) ordering, as a baseline for the micro benchmarks.
std::vector<int> NaturalOrder(int n);

/// Reverse Cuthill-McKee ordering of A + A^T: bandwidth-reducing alternative
/// used in the ordering ablation micro bench.
std::vector<int> ReverseCuthillMcKeeOrder(const CscMatrix& matrix);

/// Validates that `order` is a permutation of 0..n-1.
bool IsPermutation(const std::vector<int>& order, int n);

}  // namespace wavepipe::sparse

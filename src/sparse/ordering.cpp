#include "sparse/ordering.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <queue>

#include "sparse/csc.hpp"
#include "util/error.hpp"

namespace wavepipe::sparse {
namespace {

// Adjacency lists (no self loops) of the undirected graph of A + A^T.
std::vector<std::vector<int>> BuildAdjacency(const CscMatrix& matrix) {
  const CscMatrix sym = matrix.SymmetrizedPattern();
  const int n = sym.cols();
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) {
    for (int k = sym.col_begin(c); k < sym.col_end(c); ++k) {
      const int r = sym.row_of(k);
      if (r != c) adj[c].push_back(r);
    }
  }
  return adj;
}

}  // namespace

std::vector<int> NaturalOrder(int n) {
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  return order;
}

bool IsPermutation(const std::vector<int>& order, int n) {
  if (static_cast<int>(order.size()) != n) return false;
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (int v : order) {
    if (v < 0 || v >= n || seen[static_cast<std::size_t>(v)]) return false;
    seen[static_cast<std::size_t>(v)] = true;
  }
  return true;
}

std::vector<int> MinimumDegreeOrder(const CscMatrix& matrix) {
  WP_ASSERT(matrix.rows() == matrix.cols());
  const int n = matrix.cols();
  const auto un = static_cast<std::size_t>(n);

  // Variable slots, read straight from the CSC pattern: slot v holds v's
  // elements (eliminated pivots whose clique contains v) followed by its
  // variable neighbours.  Eliminating p puts element p, in every slot of
  // L_p, in place of p or of an element p absorbs, so a slot never outgrows
  // its initial neighbour count.
  std::vector<int> slot_begin(un + 1, 0);
  for (int c = 0; c < n; ++c) {
    for (int k = matrix.col_begin(c); k < matrix.col_end(c); ++k) {
      const int r = matrix.row_of(k);
      if (r == c) continue;
      ++slot_begin[static_cast<std::size_t>(c) + 1];
      ++slot_begin[static_cast<std::size_t>(r) + 1];
    }
  }
  for (std::size_t v = 0; v < un; ++v) slot_begin[v + 1] += slot_begin[v];
  std::vector<int> slots(static_cast<std::size_t>(slot_begin[un]));
  std::vector<int> num_elements(un, 0);  // elements at the head of each slot
  std::vector<int> num_variables(un, 0);  // variable neighbours after them
  for (int c = 0; c < n; ++c) {
    for (int k = matrix.col_begin(c); k < matrix.col_end(c); ++k) {
      const int r = matrix.row_of(k);
      if (r == c) continue;
      slots[static_cast<std::size_t>(slot_begin[c] + num_variables[c]++)] = r;
      slots[static_cast<std::size_t>(slot_begin[r] + num_variables[r]++)] = c;
    }
  }

  // Stamped marker: mark[x] == stamp tags x in the current pass; a fresh
  // stamp clears every tag at once.  One elimination takes at most n + 1
  // stamps, so the counter restarts only between eliminations.
  std::vector<int> mark(un, 0);
  int stamp = 0;
  const auto reserve_stamps = [&] {
    if (stamp > std::numeric_limits<int>::max() - n - 2) {
      std::fill(mark.begin(), mark.end(), 0);
      stamp = 0;
    }
  };

  // Drop duplicate neighbours (A and A^T both store an unsymmetric pair).
  std::vector<int> degree(un, 0);
  for (int v = 0; v < n; ++v) {
    const int s = ++stamp;
    int* adj = slots.data() + slot_begin[v];
    int kept = 0;
    for (int i = 0; i < num_variables[v]; ++i) {
      const int x = adj[i];
      if (mark[x] != s) {
        mark[x] = s;
        adj[kept++] = x;
      }
    }
    num_variables[v] = kept;
    degree[v] = kept;
  }

  // Element lists L_e, append-only: no list holds an eliminated variable,
  // because eliminating a variable absorbs every element that contains it.
  std::vector<int> element_vars;
  element_vars.reserve(slots.size());
  std::vector<int> element_begin(un, 0);
  std::vector<int> element_size(un, 0);
  std::vector<char> absorbed(un, 0);
  std::vector<int> outside(un, 0);

  // Lazy min-heap on (exact degree, vertex): every live vertex has an entry
  // with its current degree, so the pop order is the smallest degree with
  // ties to the lowest index; entries whose degree moved on are skipped.
  using Entry = std::pair<int, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (int v = 0; v < n; ++v) heap.emplace(degree[v], v);
  std::vector<char> eliminated(un, 0);

  std::vector<int> order;
  order.reserve(un);
  while (!heap.empty()) {
    const auto [deg, p] = heap.top();
    heap.pop();
    if (eliminated[p] || deg != degree[p]) continue;  // stale heap entry
    eliminated[p] = 1;
    order.push_back(p);
    reserve_stamps();

    // L_p = (A_p + the lists of p's elements) - p; p's elements are absorbed.
    const int in_lp = ++stamp;
    mark[p] = in_lp;
    const int* p_slot = slots.data() + slot_begin[p];
    element_begin[p] = static_cast<int>(element_vars.size());
    for (int i = 0; i < num_elements[p]; ++i) {
      const int e = p_slot[i];
      absorbed[e] = 1;
      for (int k = element_begin[e]; k < element_begin[e] + element_size[e]; ++k) {
        const int x = element_vars[static_cast<std::size_t>(k)];
        if (mark[x] != in_lp) {
          mark[x] = in_lp;
          element_vars.push_back(x);
        }
      }
    }
    for (int i = num_elements[p]; i < num_elements[p] + num_variables[p]; ++i) {
      const int x = p_slot[i];
      if (mark[x] != in_lp) {
        mark[x] = in_lp;
        element_vars.push_back(x);
      }
    }
    element_size[p] = static_cast<int>(element_vars.size()) - element_begin[p];

    // outside[e] = |L_e - L_p| for every other element next to L_p (its tag
    // in mark is in_lp; elements never sit in a variable list).  An element
    // with nothing outside L_p is a subset of element p and is absorbed too:
    // that drops only redundant sets, so no degree changes.
    const int lp_begin = element_begin[p];
    const int lp_size = element_size[p];
    for (int j = lp_begin; j < lp_begin + lp_size; ++j) {
      const int u = element_vars[static_cast<std::size_t>(j)];
      const int* u_slot = slots.data() + slot_begin[u];
      for (int i = 0; i < num_elements[u]; ++i) {
        const int e = u_slot[i];
        if (absorbed[e]) continue;
        if (mark[e] != in_lp) {
          mark[e] = in_lp;
          outside[e] = element_size[e];
        }
        --outside[e];
      }
    }

    // Each u in L_p: drop absorbed elements and the variables element p now
    // covers (p and L_p), and add element p.  A variable list is disjoint
    // from the lists of its vertex's elements (each new element prunes it),
    // so u's exact degree is |L_p - u| + |A_u| + |union of L_e - L_p| over
    // u's other elements, which needs a walk only for two or more of them.
    for (int j = lp_begin; j < lp_begin + lp_size; ++j) {
      const int u = element_vars[static_cast<std::size_t>(j)];
      int* u_slot = slots.data() + slot_begin[u];
      const int old_len = num_elements[u] + num_variables[u];
      int ne = 0;
      for (int i = 0; i < num_elements[u]; ++i) {
        const int e = u_slot[i];
        if (absorbed[e] || outside[e] == 0) {
          absorbed[e] = 1;
        } else {
          u_slot[ne++] = e;
        }
      }
      int na = 0;
      for (int i = num_elements[u]; i < old_len; ++i) {
        const int x = u_slot[i];
        if (mark[x] != in_lp) u_slot[ne + na++] = x;
      }
      // u reached L_p through p itself or through an element p absorbed, so
      // at least one entry went and element p fits.
      WP_ASSERT(ne + na < old_len);
      u_slot[ne + na] = u_slot[ne];
      u_slot[ne] = p;
      num_elements[u] = ne + 1;
      num_variables[u] = na;

      int d = lp_size - 1 + na;
      if (ne == 1) {
        d += outside[u_slot[0]];
      } else if (ne > 1) {
        const int counted = ++stamp;
        for (int i = 0; i < ne; ++i) {
          const int e = u_slot[i];
          for (int k = element_begin[e]; k < element_begin[e] + element_size[e]; ++k) {
            const int x = element_vars[static_cast<std::size_t>(k)];
            if (mark[x] != in_lp && mark[x] != counted) {
              mark[x] = counted;
              ++d;
            }
          }
        }
      }
      if (d != degree[u]) {
        degree[u] = d;
        heap.emplace(d, u);
      }
    }
  }
  WP_ASSERT(IsPermutation(order, n));
  return order;
}

std::vector<int> ReverseCuthillMcKeeOrder(const CscMatrix& matrix) {
  WP_ASSERT(matrix.rows() == matrix.cols());
  const int n = matrix.cols();
  auto adj = BuildAdjacency(matrix);
  for (auto& list : adj) std::sort(list.begin(), list.end());

  std::vector<int> degree(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) degree[v] = static_cast<int>(adj[v].size());

  std::vector<bool> visited(static_cast<std::size_t>(n), false);
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));

  for (;;) {
    // Pick the unvisited vertex of minimum degree as the next BFS root.
    int root = -1;
    for (int v = 0; v < n; ++v) {
      if (!visited[v] && (root < 0 || degree[v] < degree[root])) root = v;
    }
    if (root < 0) break;

    std::queue<int> queue;
    queue.push(root);
    visited[root] = true;
    while (!queue.empty()) {
      const int v = queue.front();
      queue.pop();
      order.push_back(v);
      std::vector<int> next;
      for (int u : adj[v]) {
        if (!visited[u]) {
          visited[u] = true;
          next.push_back(u);
        }
      }
      std::sort(next.begin(), next.end(),
                [&](int a, int b) { return degree[a] < degree[b]; });
      for (int u : next) queue.push(u);
    }
  }
  std::reverse(order.begin(), order.end());
  WP_ASSERT(IsPermutation(order, n));
  return order;
}

}  // namespace wavepipe::sparse

// Seeded workload generator: each benchmark workload is SPICE deck text
// drawn from a seed.  Sizes (grid dimensions, stage counts, tap counts) are
// fixed per workload; the seed only draws element values, load positions and
// source timings, so two seeds give the same topology with different values.
// The library under test receives nothing but this text.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Workload {
  /// Transient deck (.tran + .print, no sweep card).
  std::string deck;
  /// The same deck with a `.mc` card: the batch-sweep input.
  std::string sweep_deck;
  /// Monte Carlo variant count of `sweep_deck`.
  int sweep_variants = 0;
  /// Largest probe deviation from the reference solution a run may show
  /// before it counts as failed, as a share of the reference's largest probe
  /// swing (max over probes and time of |v(t) - v(0)|).
  double err_tolerance_share = 0.0;
  /// The same for the speculative (combined-scheme) pipeline, whose
  /// direct-accepted points carry prediction error.
  double speculative_err_tolerance_share = 0.0;
};

/// Workload names in the order the benchmark documents them.
const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` from `seed`.  Throws std::invalid_argument on an
/// unknown name.  A pure function: the same (name, seed) always gives
/// byte-identical decks.
Workload MakeWorkload(std::string_view name, std::uint64_t seed);

}  // namespace perfbench

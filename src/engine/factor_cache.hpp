// Exact numeric-factor reuse for linear circuits.
//
// On a linear circuit the Jacobian G + a0·C (plus any gshunt on the node
// diagonal) depends only on the integrator coefficient and the shunt, and the
// step controller climbs the same h0 -> hmax doubling ladder after every
// breakpoint.  A run therefore demands a handful of distinct Jacobians
// thousands of times.  FactorCache keeps the numeric factors of recent
// Refactor() calls and serves a repeated demand by loading them back into the
// context's SparseLu instead of refactoring.
//
// Exactness: Refactor() is a pure function of (symbolic state, matrix
// values).  An entry serves a demand only when its (a0, gshunt) bits,
// SparseLu::symbolic_generation() and the Jacobian values it was factored
// from all match, the values compared bit for bit.  A hit therefore leaves
// the SparseLu in exactly the state the skipped Refactor() would have left,
// and Solve, Refine, the chord snapshot and the factor seeds see the same
// bits.  A full Factor() is never stored: it sums in a different order than
// the Refactor() a later demand on the same values runs, and it starts a new
// symbolic generation, so it empties the cache instead.
//
// Budget: a run holds at most kRunEntries entries and kRunBytes bytes.
// Contexts that may solve at the same time split that budget with
// ShareOfRun().  Eviction drops the least-recently-used entry that has never
// served a hit, or the least-recently-used entry when every entry has.
// Plain LRU thrashes on the eleven-rung step ladder at this size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sparse/lu.hpp"

namespace wavepipe::util::telemetry {
class CounterRegistry;
}

namespace wavepipe::engine {

/// Run-level factor-cache telemetry (run_stats group `factor_cache.*`).
struct FactorCacheStats {
  std::uint64_t hits = 0;        ///< factor demands served from a cache
  std::uint64_t misses = 0;      ///< consulted demands that factored instead
  std::uint64_t evictions = 0;   ///< entries dropped to stay inside the budget
  std::uint64_t peak_bytes = 0;  ///< largest footprint one context's cache reached

  /// Registers every field under the `factor_cache.` prefix.
  void ExportCounters(util::telemetry::CounterRegistry& registry) const;
};

class FactorCache {
 public:
  static constexpr std::size_t kRunEntries = 8;
  static constexpr std::size_t kRunBytes = std::size_t{64} << 20;

  struct Budget {
    std::size_t entries = 0;  ///< 0 disables the cache
    std::size_t bytes = 0;
  };

  /// One of `contexts` concurrently live contexts' share of the run budget:
  /// floor(kRunEntries / contexts) entries, at least 1, and the bytes that
  /// go with them.
  static Budget ShareOfRun(std::size_t contexts);

  /// The demand's integrator coefficient and node shunt, compared by bits.
  struct Key {
    double a0 = 0.0;
    double gshunt = 0.0;
  };

  FactorCache() = default;
  ~FactorCache();
  FactorCache(const FactorCache&) = delete;
  FactorCache& operator=(const FactorCache&) = delete;

  /// Sets the budget and drops every entry and its memory.  The default
  /// budget is zero: a context caches only when its driver configures it.
  void Configure(const Budget& budget);
  bool enabled() const { return budget_.entries > 0; }

  /// Serves a factor demand.  When an entry matches `key`,
  /// `lu.symbolic_generation()` and `values`, evaluates the `lu.pivot` fault
  /// site once as SparseLu::FactorOrRefactor() does (throwing
  /// SingularMatrixError when it fires), loads the entry's factors into `lu`
  /// and returns true.  Returns false on a miss and leaves `lu` untouched.
  bool Serve(sparse::SparseLu& lu, const Key& key, std::span<const double> values);

  /// Stores the factors `lu` holds, which Refactor() just computed from
  /// `values`.  Replaces an entry with the same key and evicts to stay
  /// inside the budget.  Stores nothing when one entry exceeds the byte
  /// budget.
  void Insert(const sparse::SparseLu& lu, const Key& key, std::span<const double> values);

  /// Drops every entry: a full Factor() started a new symbolic generation.
  void Clear();

  std::size_t size() const { return entries_.size(); }
  std::size_t bytes() const { return entries_.size() * block_size_ * sizeof(double); }
  const Budget& budget() const { return budget_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t peak_bytes() const { return peak_bytes_; }

 private:
  struct Entry {
    std::uint64_t a0_bits = 0;
    std::uint64_t gshunt_bits = 0;
    std::size_t block = 0;       ///< index of its block in the slab
    std::uint64_t last_use = 0;  ///< LRU clock at insert or last hit
    bool hit = false;            ///< served at least one demand
  };

  /// Index in entries_ of the entry to evict (see the header comment).
  std::size_t Victim() const;
  /// Block `b` of the slab: the Jacobian values, then the numeric factors.
  std::span<double> Block(std::size_t b) {
    return {slab_ + b * block_size_, block_size_};
  }
  /// Maps a slab of `blocks` blocks of block_size_ doubles; unmaps the old.
  void MapSlab(std::size_t blocks);

  Budget budget_;
  std::vector<Entry> entries_;  ///< entry i always owns one of blocks [0, size)
  // Entries live in one anonymous mapping, not on the heap: a cache built on
  // a pool worker would otherwise leave its pages in that thread's malloc
  // arena after the run, and a process running many pooled runs would keep
  // one cache's worth of memory per arena.
  double* slab_ = nullptr;
  std::size_t slab_blocks_ = 0;
  std::size_t block_size_ = 0;   ///< doubles per block
  std::size_t values_size_ = 0;  ///< doubles of Jacobian values per block
  std::uint64_t generation_ = 0;  ///< symbolic generation of every entry
  std::uint64_t clock_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t peak_bytes_ = 0;
};

}  // namespace wavepipe::engine

// Shared fill-reducing-ordering cache.
//
// Computing a minimum-degree (or RCM) ordering costs far more than a numeric
// refactorization, and the same sparsity pattern recurs constantly: every
// FactorOrRefactor pivot-failure fallback re-factors the identical pattern,
// every WavePipe context factors the same circuit matrix, and a domain-
// decomposed solve factors many pieces whose patterns often coincide (equal
// mesh stripes).  SparseLu keeps a private single-slot cache; this promotes
// it to a shared, explicitly keyed artifact several SparseLu instances reuse
// concurrently.  The sharers: the contexts of one pipeline run (the
// driver's run-level cache), the pieces of one BBD solver, and every
// variant of a batch (SimOptions::ordering_cache, which then also replaces
// the pipeline's own).  A run-level cache also serves every context's BBD
// pieces and Schur LU.  No cache outlives its run or batch.
//
// Keying: (n, nnz, FNV-1a pattern hash, ordering kind).  A hash collision
// merely reuses a permutation computed for a different pattern, which costs
// fill quality, never correctness — the factorization pivots within whatever
// column order it is given (same contract as SparseLu's private cache).
//
// Thread safety: Find/Insert are mutex-protected; the cached orderings are
// immutable shared_ptrs, so readers hold them with no lock.  Insert is
// first-wins: concurrent factors of one pattern agree on a single ordering,
// keeping results deterministic regardless of thread interleaving (both
// candidates are identical anyway — the ordering algorithms are pure).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace wavepipe::sparse {

class CscMatrix;

/// FNV-1a over the pattern arrays — cheap O(nnz) fingerprint used by the
/// ordering cache key (and by SparseLu's private fallback cache).
std::uint64_t PatternHash(const CscMatrix& matrix);

class OrderingCache {
 public:
  struct Key {
    int n = 0;
    std::size_t nnz = 0;
    std::uint64_t pattern_hash = 0;
    int ordering_kind = 0;  ///< SparseLu::Options::Ordering, widened
    bool operator==(const Key&) const = default;
  };

  using OrderingPtr = std::shared_ptr<const std::vector<int>>;

  /// Cached ordering for `key`, or null.  Counts a hit/miss.
  OrderingPtr Find(const Key& key);

  /// Publishes `order` for `key` and returns the cache's copy.  First insert
  /// wins: if another thread published the key meanwhile, the already-cached
  /// ordering is returned and `order` is dropped.
  OrderingPtr Insert(const Key& key, std::vector<int> order);

  std::size_t size() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<Key, OrderingPtr>> entries_;  // few patterns: linear scan
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace wavepipe::sparse

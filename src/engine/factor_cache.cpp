#include "engine/factor_cache.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/telemetry.hpp"

namespace wavepipe::engine {
namespace {

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

}  // namespace

void FactorCacheStats::ExportCounters(util::telemetry::CounterRegistry& registry) const {
  registry.Count("factor_cache.hits", hits);
  registry.Count("factor_cache.misses", misses);
  registry.Count("factor_cache.evictions", evictions);
  registry.Count("factor_cache.peak_bytes", peak_bytes);
}

FactorCache::Budget FactorCache::ShareOfRun(std::size_t contexts) {
  const std::size_t entries =
      std::max<std::size_t>(1, kRunEntries / std::max<std::size_t>(1, contexts));
  return {entries, entries * (kRunBytes / kRunEntries)};
}

FactorCache::~FactorCache() { MapSlab(0); }

void FactorCache::Configure(const Budget& budget) {
  budget_ = budget;
  Clear();
  MapSlab(0);
  block_size_ = 0;
  values_size_ = 0;
}

void FactorCache::MapSlab(std::size_t blocks) {
  if (slab_ != nullptr) munmap(slab_, slab_blocks_ * block_size_ * sizeof(double));
  slab_ = nullptr;
  slab_blocks_ = 0;
  if (blocks == 0) return;
  void* mapped = mmap(nullptr, blocks * block_size_ * sizeof(double),
                      PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapped == MAP_FAILED) return;  // no memory to spare: run uncached
  slab_ = static_cast<double*>(mapped);
  slab_blocks_ = blocks;
}

bool FactorCache::Serve(sparse::SparseLu& lu, const Key& key, std::span<const double> values) {
  if (entries_.empty() || !lu.factored() || lu.symbolic_generation() != generation_ ||
      values.size() != values_size_) {
    return false;
  }
  const std::uint64_t a0 = Bits(key.a0);
  const std::uint64_t gshunt = Bits(key.gshunt);
  for (Entry& entry : entries_) {
    if (entry.a0_bits != a0 || entry.gshunt_bits != gshunt) continue;
    const std::span<const double> block = Block(entry.block);
    if (!values.empty() && std::memcmp(values.data(), block.data(), values.size_bytes()) != 0) {
      continue;
    }
    // The demand is served, so it meets the fault site FactorOrRefactor()
    // would have evaluated: armed schedules keep firing on the same demand.
    if (WP_FAULT_POINT("lu.pivot")) {
      throw SingularMatrixError("lu.pivot: injected pivot failure", -1);
    }
    WP_TSPAN("factor", "cache_hit");
    lu.LoadNumeric(block.subspan(values_size_));
    entry.last_use = ++clock_;
    entry.hit = true;
    return true;
  }
  return false;
}

void FactorCache::Insert(const sparse::SparseLu& lu, const Key& key,
                         std::span<const double> values) {
  if (!enabled()) return;
  if (lu.symbolic_generation() != generation_) {
    Clear();
    generation_ = lu.symbolic_generation();
  }
  const std::size_t block_size = values.size() + lu.numeric_size();
  if (block_size != block_size_) {
    // A new symbolic state may fill differently: lay the slab out again.
    Clear();
    MapSlab(0);
    block_size_ = block_size;
    values_size_ = values.size();
    MapSlab(std::min(budget_.entries, budget_.bytes / (block_size_ * sizeof(double))));
  }
  if (slab_blocks_ == 0) return;

  // One entry per key: a key whose Jacobian changed (nodeset clamps) is
  // replaced, never duplicated.  A replaced or evicted entry hands its block
  // to the new one, so the entries always own blocks [0, size()).
  const std::uint64_t a0 = Bits(key.a0);
  const std::uint64_t gshunt = Bits(key.gshunt);
  std::size_t block = entries_.size();
  const auto same_key = std::find_if(entries_.begin(), entries_.end(), [&](const Entry& e) {
    return e.a0_bits == a0 && e.gshunt_bits == gshunt;
  });
  if (same_key != entries_.end()) {
    block = same_key->block;
    entries_.erase(same_key);
  } else if (entries_.size() == slab_blocks_) {
    const auto victim = entries_.begin() + static_cast<std::ptrdiff_t>(Victim());
    block = victim->block;
    entries_.erase(victim);
    ++evictions_;
  }

  const std::span<double> dest = Block(block);
  std::copy(values.begin(), values.end(), dest.begin());
  lu.SaveNumeric(dest.subspan(values_size_));
  entries_.push_back({a0, gshunt, block, ++clock_, false});
  peak_bytes_ = std::max<std::uint64_t>(peak_bytes_, bytes());
}

void FactorCache::Clear() { entries_.clear(); }

std::size_t FactorCache::Victim() const {
  WP_ASSERT(!entries_.empty());
  std::size_t victim = 0;
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    const Entry& candidate = entries_[i];
    const Entry& current = entries_[victim];
    // Never-hit entries go first; within a class, the least recently used.
    if (candidate.hit != current.hit ? !candidate.hit
                                     : candidate.last_use < current.last_use) {
      victim = i;
    }
  }
  return victim;
}

}  // namespace wavepipe::engine

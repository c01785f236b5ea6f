// Exact factor reuse (engine/factor_cache.hpp): a served demand is bitwise
// the Refactor() it skips, a full Factor() empties the cache, the run budget
// and the eviction order hold, nonlinear circuits never consult it, and the
// `lu.pivot` fault site sees every demand.
#include "engine/factor_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "circuits/generators.hpp"
#include "engine/dcop.hpp"
#include "engine/newton.hpp"
#include "engine/transient.hpp"
#include "sparse/triplet.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"
#include "wavepipe/wavepipe.hpp"

namespace wavepipe::engine {
namespace {

using util::fault::Schedule;
using util::fault::ScopedFault;

/// Backward-Euler coefficients of a doubling step ladder, as the step
/// controller climbs it after a breakpoint.
double LadderA0(int rung) { return 1.0 / (1e-12 * static_cast<double>(1 << rung)); }

/// One transient-style Newton solve at `a0` from a zero guess.  A linear
/// circuit's converged x is a pure function of the factors and the RHS.
NewtonStats SolveAt(SolveContext& ctx, double a0) {
  std::fill(ctx.x.begin(), ctx.x.end(), 0.0);
  NewtonInputs inputs;
  inputs.time = 2e-10;
  inputs.a0 = a0;
  inputs.transient = true;
  const SimOptions options;
  inputs.gmin = options.gmin;
  return SolveNewton(ctx, inputs, options, 20);
}

int Demands(const NewtonStats& stats) {
  return stats.lu_full_factors + stats.lu_refactors + stats.factor_cache_hits;
}

class FactorCacheTest : public ::testing::Test {
 protected:
  void TearDown() override { util::fault::DisarmAll(); }
};

// A context that solves K1, K2, K1 serves the second K1 from its cache and
// returns bitwise the x of a cold context that solves K2, K1.
TEST_F(FactorCacheTest, ServedDemandIsBitwiseTheRefactorItSkips) {
  const auto gen = circuits::MakeRcMesh(6, 6);
  const MnaStructure mna(*gen.circuit);

  SolveContext warm(*gen.circuit, mna);
  warm.factor_cache.Configure(FactorCache::ShareOfRun(1));
  ASSERT_TRUE(SolveAt(warm, LadderA0(0)).converged);
  ASSERT_TRUE(SolveAt(warm, LadderA0(1)).converged);
  warm.record_factor_seeds = true;
  const NewtonStats again = SolveAt(warm, LadderA0(0));
  ASSERT_TRUE(again.converged);
  EXPECT_GT(again.factor_cache_hits, 0);
  EXPECT_EQ(again.lu_full_factors + again.lu_refactors, 0);
  // A hit is a numeric factorization for checkpoint replay: the seeds name
  // the values ctx.lu now holds factors of.
  EXPECT_TRUE(std::equal(warm.lu_seeds.numeric.begin(), warm.lu_seeds.numeric.end(),
                         warm.matrix.values().begin(), warm.matrix.values().end()));

  SolveContext cold(*gen.circuit, mna);
  cold.factor_cache.Configure(FactorCache::ShareOfRun(1));
  ASSERT_TRUE(SolveAt(cold, LadderA0(1)).converged);
  const NewtonStats fresh = SolveAt(cold, LadderA0(0));
  ASSERT_TRUE(fresh.converged);
  EXPECT_GT(fresh.lu_refactors, 0);
  EXPECT_EQ(warm.x, cold.x);
}

// A long demand sequence over the step ladder, with a cache small enough to
// evict, matches an uncached context bit for bit at every solve.
TEST_F(FactorCacheTest, LadderSequenceMatchesAnUncachedContextBitwise) {
  const auto gen = circuits::MakeRcMesh(5, 7);
  const MnaStructure mna(*gen.circuit);
  SolveContext cached(*gen.circuit, mna);
  cached.factor_cache.Configure({2, FactorCache::kRunBytes});
  SolveContext uncached(*gen.circuit, mna);

  int hits = 0;
  for (int step = 0; step < 40; ++step) {
    const double a0 = LadderA0((step * 7) % 5);
    const NewtonStats a = SolveAt(cached, a0);
    const NewtonStats b = SolveAt(uncached, a0);
    ASSERT_TRUE(a.converged && b.converged);
    ASSERT_EQ(cached.x, uncached.x) << "step " << step;
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(Demands(a), Demands(b));
    EXPECT_EQ(b.factor_cache_hits + b.factor_cache_misses, 0);
    hits += a.factor_cache_hits;
  }
  EXPECT_GT(hits, 0);
  EXPECT_GT(cached.factor_cache.evictions(), 0u);
  EXPECT_LE(cached.factor_cache.size(), 2u);
}

// A demand that runs a full Factor() starts a new symbolic generation: the
// cache drops every entry, so a key cached before it misses afterwards.
TEST_F(FactorCacheTest, FullFactorEmptiesTheCache) {
  const auto gen = circuits::MakeRcMesh(4, 4);
  const MnaStructure mna(*gen.circuit);
  SolveContext ctx(*gen.circuit, mna);
  ctx.factor_cache.Configure(FactorCache::ShareOfRun(1));
  ASSERT_TRUE(SolveAt(ctx, LadderA0(0)).converged);
  ASSERT_TRUE(SolveAt(ctx, LadderA0(1)).converged);
  ASSERT_TRUE(SolveAt(ctx, LadderA0(2)).converged);
  EXPECT_EQ(ctx.factor_cache.size(), 3u);

  ctx.lu.Reset(sparse::SparseLu::Options{});
  const NewtonStats refactored = SolveAt(ctx, LadderA0(2));
  EXPECT_EQ(refactored.lu_full_factors, 1);
  // The Factor()'s own output was not stored: the next demand on the same
  // values refactors, and only that Refactor() is cached.
  EXPECT_EQ(refactored.factor_cache_hits, refactored.iterations - 2);
  EXPECT_EQ(refactored.lu_refactors, 1);
  EXPECT_EQ(ctx.factor_cache.size(), 1u);
  const NewtonStats after = SolveAt(ctx, LadderA0(0));
  EXPECT_EQ(after.factor_cache_hits, after.iterations - 1);
  EXPECT_EQ(after.lu_refactors, 1);
}

/// A small SparseLu and one Jacobian per key for driving FactorCache directly.
struct LadderMatrices {
  explicit LadderMatrices(int keys) {
    sparse::TripletBuilder t(8, 8);
    for (int i = 0; i < 8; ++i) {
      t.Add(i, i, 4.0);
      if (i > 0) t.Add(i, i - 1, -1.0);
      if (i + 1 < 8) t.Add(i, i + 1, -1.0);
    }
    base = t.ToCsc();
    lu.Factor(base);
    for (int k = 0; k < keys; ++k) {
      sparse::CscMatrix m = base;
      for (double& v : m.mutable_values()) v *= 1.0 + 0.125 * k;
      matrices.push_back(std::move(m));
    }
  }
  FactorCache::Key key(int k) const { return {LadderA0(k), 0.0}; }
  std::span<const double> values(int k) const { return matrices[k].values(); }
  /// Refactor()s key k and offers the result to `cache`.
  void Insert(FactorCache& cache, int k) {
    ASSERT_TRUE(lu.Refactor(matrices[k]));
    cache.Insert(lu, key(k), values(k));
  }
  bool Serve(FactorCache& cache, int k) { return cache.Serve(lu, key(k), values(k)); }

  sparse::CscMatrix base;
  sparse::SparseLu lu;
  std::vector<sparse::CscMatrix> matrices;
};

TEST_F(FactorCacheTest, NeverHitEntriesAreEvictedFirstThenLeastRecentlyUsed) {
  LadderMatrices m(8);
  FactorCache cache;
  cache.Configure({4, FactorCache::kRunBytes});
  m.Insert(cache, 0);
  ASSERT_TRUE(m.Serve(cache, 0));
  for (int k = 1; k < 4; ++k) m.Insert(cache, k);

  // Key 0 is the least recently used but has served a hit; key 1 is the
  // least recently used of the never-hit entries.
  m.Insert(cache, 4);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(m.Serve(cache, 1));
  EXPECT_TRUE(m.Serve(cache, 0));
  for (int k = 2; k <= 4; ++k) EXPECT_TRUE(m.Serve(cache, k));

  // Every entry has been hit now: plain LRU picks key 0.
  m.Insert(cache, 5);
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_FALSE(m.Serve(cache, 0));
  EXPECT_TRUE(m.Serve(cache, 2));

  // Re-inserting a cached key replaces its entry instead of adding one.
  m.Insert(cache, 2);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.evictions(), 2u);
}

TEST_F(FactorCacheTest, ByteBudgetHolds) {
  LadderMatrices m(6);
  FactorCache probe;
  probe.Configure({1, FactorCache::kRunBytes});
  m.Insert(probe, 0);
  const std::size_t entry_bytes = probe.bytes();
  ASSERT_GT(entry_bytes, 0u);

  FactorCache cache;
  cache.Configure({8, entry_bytes * 5 / 2});
  for (int k = 0; k < 6; ++k) {
    m.Insert(cache, k);
    EXPECT_LE(cache.bytes(), cache.budget().bytes);
    EXPECT_LE(cache.size(), 2u);
  }
  EXPECT_EQ(cache.evictions(), 4u);
  EXPECT_LE(cache.peak_bytes(), cache.budget().bytes);

  // An entry larger than the whole budget is never stored.
  FactorCache tiny;
  tiny.Configure({8, entry_bytes - 1});
  m.Insert(tiny, 0);
  EXPECT_EQ(tiny.size(), 0u);
  EXPECT_FALSE(m.Serve(tiny, 0));
}

// The key only filters: a demand whose Jacobian differs from the entry's in
// any bit (a nodeset clamp on the DC key, say) is a miss.
TEST_F(FactorCacheTest, SameKeyWithOtherValuesMisses) {
  LadderMatrices m(2);
  FactorCache cache;
  cache.Configure(FactorCache::ShareOfRun(1));
  m.Insert(cache, 0);
  EXPECT_FALSE(cache.Serve(m.lu, m.key(0), m.values(1)));
  std::vector<double> nudged(m.values(0).begin(), m.values(0).end());
  nudged.back() = std::nextafter(nudged.back(), 0.0);
  EXPECT_FALSE(cache.Serve(m.lu, m.key(0), nudged));
  EXPECT_TRUE(m.Serve(cache, 0));
}

TEST_F(FactorCacheTest, EntriesOfAnOlderGenerationNeverServe) {
  LadderMatrices m(2);
  FactorCache cache;
  cache.Configure(FactorCache::ShareOfRun(1));
  m.Insert(cache, 0);
  ASSERT_TRUE(m.Serve(cache, 0));
  m.lu.Factor(m.matrices[1]);
  EXPECT_FALSE(m.Serve(cache, 0));
  m.Insert(cache, 1);  // drops the stale entry
  EXPECT_EQ(cache.size(), 1u);
}

// Slots split one run budget: their capacities sum to at most kRunEntries
// entries and kRunBytes bytes, except that every slot keeps one entry.
TEST_F(FactorCacheTest, ShareOfRunSplitsTheRunBudget) {
  const FactorCache::Budget whole = FactorCache::ShareOfRun(1);
  EXPECT_EQ(whole.entries, FactorCache::kRunEntries);
  EXPECT_EQ(whole.bytes, FactorCache::kRunBytes);
  const std::size_t per_entry = FactorCache::kRunBytes / FactorCache::kRunEntries;
  for (std::size_t slots = 1; slots <= 32; ++slots) {
    const FactorCache::Budget share = FactorCache::ShareOfRun(slots);
    EXPECT_GE(share.entries, 1u);
    EXPECT_LE(slots * share.entries, std::max(FactorCache::kRunEntries, slots)) << slots;
    EXPECT_LE(slots * share.bytes, std::max(FactorCache::kRunBytes, slots * per_entry))
        << slots;
  }
  EXPECT_EQ(FactorCache::ShareOfRun(3).entries, 2u);
  EXPECT_EQ(FactorCache::ShareOfRun(9).entries, 1u);
}

// The pipeline's peak footprint per context stays inside its slot's share.
TEST_F(FactorCacheTest, PipelineSlotsStayInsideTheirShare) {
  const auto gen = circuits::MakeRcMesh(6, 6);
  const MnaStructure mna(*gen.circuit);
  pipeline::WavePipeOptions options;
  options.scheme = pipeline::Scheme::kBackward;
  options.threads = 3;
  const auto result = pipeline::RunWavePipe(*gen.circuit, mna, gen.spec, options);
  ASSERT_TRUE(result.completed) << result.abort_reason;
  EXPECT_GT(result.stats.factor_cache.hits, 0u);
  EXPECT_LE(result.stats.factor_cache.peak_bytes, FactorCache::ShareOfRun(3).bytes);
}

// Serial runs that are tasks of one pool (batch variants) split the run
// budget like pipeline slots; a run on its own keeps all of it.
TEST_F(FactorCacheTest, RunsOnOnePoolShareTheRunBudget) {
  const auto gen = circuits::MakeRcMesh(6, 6);
  const MnaStructure mna(*gen.circuit);
  const auto alone = RunTransientSerial(*gen.circuit, mna, gen.spec, {});
  util::ThreadPool pool(4);
  const auto pooled =
      pool.Submit([&] { return RunTransientSerial(*gen.circuit, mna, gen.spec, {}); }).get();
  ASSERT_TRUE(alone.completed && pooled.completed);
  EXPECT_GT(pooled.stats.factor_cache.hits, 0u);
  EXPECT_LE(pooled.stats.factor_cache.peak_bytes, FactorCache::ShareOfRun(4).bytes);
  EXPECT_GT(alone.stats.factor_cache.peak_bytes, pooled.stats.factor_cache.peak_bytes);
  ASSERT_EQ(alone.trace.num_samples(), pooled.trace.num_samples());
  for (std::size_t s = 0; s < alone.trace.num_samples(); ++s) {
    for (std::size_t p = 0; p < alone.trace.probes().size(); ++p) {
      ASSERT_EQ(alone.trace.value(s, p), pooled.trace.value(s, p));
    }
  }
}

TEST_F(FactorCacheTest, NonlinearCircuitNeverConsultsTheCache) {
  const auto gen = circuits::MakeInverterChain(6);
  const MnaStructure mna(*gen.circuit);
  const auto result = RunTransientSerial(*gen.circuit, mna, gen.spec, {});
  ASSERT_TRUE(result.completed) << result.abort_reason;
  EXPECT_GT(result.stats.lu_refactors, 0u);
  EXPECT_EQ(result.stats.factor_cache.hits, 0u);
  EXPECT_EQ(result.stats.factor_cache.misses, 0u);
  EXPECT_EQ(result.stats.factor_cache.evictions, 0u);
  EXPECT_EQ(result.stats.factor_cache.peak_bytes, 0u);
}

// A served demand still meets the `lu.pivot` site, so the site counts every
// monolithic factor demand of a run: its DC operating point's and its time
// points' (full factors + refactors + cache hits).
TEST_F(FactorCacheTest, LuPivotSiteCountsEveryDemand) {
  const auto gen = circuits::MakeRcMesh(6, 6);
  const MnaStructure mna(*gen.circuit);
  const Schedule count_only{.skip = Schedule::kUnlimited};

  std::uint64_t dc_demands = 0;
  {
    ScopedFault count("lu.pivot", count_only);
    SolveContext ctx(*gen.circuit, mna);
    SolveDcOperatingPoint(ctx, SimOptions{}, gen.spec.initial_conditions);
    dc_demands = count.hits();
  }
  ScopedFault count("lu.pivot", count_only);
  const auto result = RunTransientSerial(*gen.circuit, mna, gen.spec, {});
  ASSERT_TRUE(result.completed) << result.abort_reason;
  const TransientStats& s = result.stats;
  EXPECT_GT(s.factor_cache.hits, 0u);
  EXPECT_EQ(count.hits(),
            dc_demands + s.lu_full_factors + s.lu_refactors + s.factor_cache.hits);
  EXPECT_EQ(count.fired(), 0u);
}

// A fault armed on a demand the cache would serve fires on that demand and
// leaves the same structured outcome as the uncached path: a singular,
// unconverged solve, then bitwise-identical solves after it.
TEST_F(FactorCacheTest, FaultOnAServedDemandMatchesTheUncachedPath) {
  const auto gen = circuits::MakeRcMesh(6, 6);
  const MnaStructure mna(*gen.circuit);
  const std::vector<int> rungs = {0, 1, 0, 1, 2, 0};

  // Find a demand the cached context serves.
  std::uint64_t served_demand = 0;
  {
    SolveContext probe(*gen.circuit, mna);
    probe.factor_cache.Configure(FactorCache::ShareOfRun(1));
    std::uint64_t demand = 0;
    for (int rung : rungs) {
      const NewtonStats stats = SolveAt(probe, LadderA0(rung));
      if (demand > 0 && stats.lu_full_factors + stats.lu_refactors == 0) {
        served_demand = demand;  // every demand of this solve was served
        break;
      }
      demand += static_cast<std::uint64_t>(Demands(stats));
    }
    ASSERT_GT(served_demand, 0u);
  }

  const auto run = [&](bool cached) {
    SolveContext ctx(*gen.circuit, mna);
    if (cached) ctx.factor_cache.Configure(FactorCache::ShareOfRun(1));
    ScopedFault fault("lu.pivot", Schedule{.skip = served_demand, .fire = 1});
    std::vector<NewtonStats> stats;
    std::vector<std::vector<double>> xs;
    for (int rung : rungs) {
      stats.push_back(SolveAt(ctx, LadderA0(rung)));
      xs.push_back(ctx.x);
    }
    EXPECT_EQ(fault.fired(), 1u);
    return std::make_pair(stats, xs);
  };
  const auto [cached_stats, cached_x] = run(true);
  const auto [plain_stats, plain_x] = run(false);
  bool saw_singular = false;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    EXPECT_EQ(cached_stats[i].converged, plain_stats[i].converged) << i;
    EXPECT_EQ(cached_stats[i].singular, plain_stats[i].singular) << i;
    EXPECT_EQ(cached_stats[i].iterations, plain_stats[i].iterations) << i;
    if (cached_stats[i].converged) {
      EXPECT_EQ(cached_x[i], plain_x[i]) << i;
    }
    saw_singular = saw_singular || cached_stats[i].singular;
  }
  EXPECT_TRUE(saw_singular);
}

}  // namespace
}  // namespace wavepipe::engine

// One fill-reducing ordering per pipeline run: every context of a run
// factors the same circuit pattern, so the run computes its minimum-degree
// ordering once (one factor/ordering span) however many contexts it has —
// once per distinct BBD piece and interface pattern under --partition —
// and sharing it changes no output bit.
#include <gtest/gtest.h>

#include <cstring>

#include "circuits/generators.hpp"
#include "engine/mna.hpp"
#include "sparse/ordering_cache.hpp"
#include "util/telemetry.hpp"
#include "wavepipe/wavepipe.hpp"

namespace wavepipe::pipeline {
namespace {

struct CapturedRun {
  WavePipeResult result;
  int orderings = 0;  ///< factor/ordering spans: orderings actually computed
};

CapturedRun RunCaptured(const circuits::GeneratedCircuit& gen, const engine::MnaStructure& mna,
                        const WavePipeOptions& options) {
  util::telemetry::StartCapture();
  CapturedRun run{RunWavePipe(*gen.circuit, mna, gen.spec, options)};
  for (const auto& event : util::telemetry::StopCapture().events) {
    if (!event.instant && std::strcmp(event.category, "factor") == 0 &&
        std::strcmp(event.name, "ordering") == 0) {
      ++run.orderings;
    }
  }
  return run;
}

void ExpectSameWaveform(const engine::Trace& a, const engine::Trace& b) {
  ASSERT_EQ(a.num_samples(), b.num_samples());
  ASSERT_EQ(a.probes().size(), b.probes().size());
  for (std::size_t i = 0; i < a.num_samples(); ++i) {
    ASSERT_EQ(a.time(i), b.time(i)) << "sample " << i;
    for (std::size_t p = 0; p < a.probes().size(); ++p) {
      ASSERT_EQ(a.value(i, p), b.value(i, p)) << "sample " << i << " probe " << p;
    }
  }
}

// Runs `options` on an RC mesh twice: with the driver's own ordering cache
// (counting the orderings computed) and with a caller's cache, which takes
// precedence; the waveforms must agree bit for bit.
void ExpectOneOrderingPerRun(WavePipeOptions options) {
  if (!util::telemetry::kSpansCompiledIn) GTEST_SKIP() << "spans compiled out";
  const auto gen = circuits::MakeRcMesh(6, 6);
  const engine::MnaStructure mna(*gen.circuit);

  const CapturedRun own = RunCaptured(gen, mna, options);
  ASSERT_TRUE(own.result.completed) << own.result.abort_reason;
  EXPECT_EQ(own.orderings, 1);

  sparse::OrderingCache cache;
  options.sim.ordering_cache = &cache;
  const CapturedRun shared = RunCaptured(gen, mna, options);
  ASSERT_TRUE(shared.result.completed) << shared.result.abort_reason;
  EXPECT_EQ(shared.orderings, 1);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_GT(cache.hits(), 0u);
  ExpectSameWaveform(own.result.trace, shared.result.trace);
}

TEST(PipelineOrderingTest, BwpAtFourThreadsOrdersOnce) {
  WavePipeOptions options;
  options.scheme = Scheme::kBackward;
  options.threads = 4;
  ExpectOneOrderingPerRun(options);
}

TEST(PipelineOrderingTest, AdaptiveCombinedOrdersOnce) {
  WavePipeOptions options;
  options.scheme = Scheme::kCombined;
  options.threads = 4;
  options.spec_policy.mode = SpecPolicyMode::kAdaptive;
  ExpectOneOrderingPerRun(options);
}

// --partition 4: every context's BBD piece LUs and Schur LU order through
// the run's cache too, so the run computes one ordering per distinct pattern
// however many contexts factor it (the solver-private caches computed each
// piece and interface pattern once per context).
void ExpectOneOrderingPerPattern(WavePipeOptions options) {
  if (!util::telemetry::kSpansCompiledIn) GTEST_SKIP() << "spans compiled out";
  const auto gen = circuits::MakeRcMesh(8, 8);
  const engine::MnaStructure mna(*gen.circuit);
  options.sim.partition_pieces = 4;

  const CapturedRun own = RunCaptured(gen, mna, options);
  ASSERT_TRUE(own.result.completed) << own.result.abort_reason;

  sparse::OrderingCache cache;
  options.sim.ordering_cache = &cache;
  const CapturedRun shared = RunCaptured(gen, mna, options);
  ASSERT_TRUE(shared.result.completed) << shared.result.abort_reason;
  // The cache holds one entry per distinct pattern: pieces and interface.
  EXPECT_GE(cache.size(), 2u);
  EXPECT_EQ(static_cast<std::size_t>(shared.orderings), cache.size());
  EXPECT_EQ(own.orderings, shared.orderings);
  EXPECT_GT(cache.hits(), 0u);
  ExpectSameWaveform(own.result.trace, shared.result.trace);
}

TEST(PipelineOrderingTest, PartitionedBwpOrdersEachPatternOnce) {
  WavePipeOptions options;
  options.scheme = Scheme::kBackward;
  options.threads = 4;
  ExpectOneOrderingPerPattern(options);
}

TEST(PipelineOrderingTest, PartitionedCombinedOrdersEachPatternOnce) {
  WavePipeOptions options;
  options.scheme = Scheme::kCombined;
  options.threads = 4;
  ExpectOneOrderingPerPattern(options);
}

}  // namespace
}  // namespace wavepipe::pipeline

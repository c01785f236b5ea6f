#include "wavepipe/virtual_pipeline.hpp"

#include <gtest/gtest.h>

namespace wavepipe::pipeline {
namespace {

SolveRecord Rec(double seconds, std::vector<int> deps = {}) {
  SolveRecord r;
  r.seconds = seconds;
  r.deps = std::move(deps);
  return r;
}

TEST(Replay, SequentialChainHasNoParallelism) {
  Ledger ledger;
  int prev = ledger.Add(Rec(1.0));
  for (int i = 0; i < 4; ++i) prev = ledger.Add(Rec(1.0, {prev}));
  const auto r1 = ReplayOnWorkers(ledger, 1);
  const auto r4 = ReplayOnWorkers(ledger, 4);
  EXPECT_DOUBLE_EQ(r1.makespan_seconds, 5.0);
  EXPECT_DOUBLE_EQ(r4.makespan_seconds, 5.0);  // chain: extra workers idle
  EXPECT_DOUBLE_EQ(r4.critical_path_seconds, 5.0);
}

TEST(Replay, IndependentTasksParallelize) {
  Ledger ledger;
  for (int i = 0; i < 4; ++i) ledger.Add(Rec(1.0));
  EXPECT_DOUBLE_EQ(ReplayOnWorkers(ledger, 1).makespan_seconds, 4.0);
  EXPECT_DOUBLE_EQ(ReplayOnWorkers(ledger, 2).makespan_seconds, 2.0);
  EXPECT_DOUBLE_EQ(ReplayOnWorkers(ledger, 4).makespan_seconds, 1.0);
  EXPECT_DOUBLE_EQ(ReplayOnWorkers(ledger, 4).critical_path_seconds, 1.0);
}

TEST(Replay, DiamondDependency) {
  // A diamond: 0 -> 1, 0 -> 2, then 1 -> 3 and 2 -> 3.
  Ledger ledger;
  const int a = ledger.Add(Rec(1.0));
  const int b = ledger.Add(Rec(2.0, {a}));
  const int c = ledger.Add(Rec(3.0, {a}));
  ledger.Add(Rec(1.0, {b, c}));
  EXPECT_DOUBLE_EQ(ReplayOnWorkers(ledger, 1).makespan_seconds, 7.0);
  // 2 workers: b and c overlap -> 1 + 3 + 1.
  EXPECT_DOUBLE_EQ(ReplayOnWorkers(ledger, 2).makespan_seconds, 5.0);
  EXPECT_DOUBLE_EQ(ReplayOnWorkers(ledger, 2).critical_path_seconds, 5.0);
}

TEST(Replay, UtilizationComputed) {
  Ledger ledger;
  ledger.Add(Rec(1.0));
  ledger.Add(Rec(1.0));
  const auto r = ReplayOnWorkers(ledger, 2);
  EXPECT_DOUBLE_EQ(r.busy_seconds, 2.0);
  EXPECT_DOUBLE_EQ(r.utilization, 1.0);
  const auto r4 = ReplayOnWorkers(ledger, 4);
  EXPECT_DOUBLE_EQ(r4.utilization, 0.5);
}

TEST(Replay, EmptyLedger) {
  Ledger ledger;
  const auto r = ReplayOnWorkers(ledger, 2);
  EXPECT_DOUBLE_EQ(r.makespan_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.utilization, 0.0);
}

TEST(Replay, WavePipeRoundShape) {
  // One BWP-style round: leading (cost 3) and backward (cost 2) both depend
  // on the previous point; next leading depends on both.
  Ledger ledger;
  const int prev = ledger.Add(Rec(1.0));
  const int lead = ledger.Add(Rec(3.0, {prev}));
  const int back = ledger.Add(Rec(2.0, {prev}));
  ledger.Add(Rec(3.0, {lead, back}));
  // Serial: 1+3+2+3 = 9.  Two workers overlap lead/back: 1+3+3 = 7.
  EXPECT_DOUBLE_EQ(ReplayOnWorkers(ledger, 1).makespan_seconds, 9.0);
  EXPECT_DOUBLE_EQ(ReplayOnWorkers(ledger, 2).makespan_seconds, 7.0);
}

}  // namespace
}  // namespace wavepipe::pipeline

// Checkpoint/restart: byte-level format tests (util/checkpoint.hpp) and the
// engine-level resume property — a run killed at an accepted-step boundary
// and resumed from its checkpoint produces a bitwise-identical trace.
//
// The kill is simulated deterministically with the run-budget governor
// (--max-steps): the governor stops the run AT an accepted-step boundary and
// the epilogue publishes a final checkpoint, which is exactly the state a
// kill -9 between checkpoints recovers to (the CI crash-recovery job does
// the real SIGKILL variant).
#include "util/checkpoint.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "circuits/generators.hpp"
#include "engine/resilience.hpp"
#include "engine/transient.hpp"
#include "parallel/fine_grained.hpp"
#include "reduce/reduce.hpp"
#include "util/fault.hpp"
#include "wavepipe/wavepipe.hpp"

namespace wavepipe {
namespace {

using engine::TransientCheckpoint;
using util::ByteReader;
using util::ByteWriter;
using util::CheckpointError;
using util::fault::Schedule;
using util::fault::ScopedFault;

std::string TempBase(const std::string& name) {
  return ::testing::TempDir() + "/" + name + ".ckpt";
}

void RemoveSlots(const std::string& base) {
  std::remove((base + ".a").c_str());
  std::remove((base + ".b").c_str());
  std::remove(base.c_str());
}

/// A parasitic-ladder chain after the --reduce pass.  A resumed process
/// starts with cold ReducedSubnet bundle caches, so resume bit-identity on
/// it pins that every bundle depends only on its (a0, gshunt) key.
circuits::GeneratedCircuit ReducedParasiticLadder() {
  auto gen = circuits::MakeParasiticLadder(4, 12);
  auto reduction = reduce::Reduce(std::move(gen.circuit));
  EXPECT_TRUE(reduction.reduced);
  reduce::RemapSpec(reduction, gen.spec);
  gen.circuit = std::move(reduction.circuit);
  return gen;
}

/// Every monolithic factor demand: computed factorizations plus the demands
/// the factor cache served.  A resumed process starts with a cold cache and
/// refactors what the uninterrupted run served from it, so factor totals
/// compare as demand totals.
std::uint64_t FactorDemands(const engine::TransientStats& stats) {
  return stats.lu_full_factors + stats.lu_refactors + stats.factor_cache.hits;
}

/// A resumed run never hits more than the uninterrupted one, and the
/// uninterrupted run hits on a linear circuit solved through ctx.lu.
void ExpectCacheHitsConsistent(const circuits::GeneratedCircuit& gen, bool monolithic,
                               const engine::TransientStats& reference,
                               const engine::TransientStats& resumed) {
  EXPECT_LE(resumed.factor_cache.hits, reference.factor_cache.hits);
  if (monolithic && !gen.circuit->is_nonlinear()) {
    EXPECT_GT(reference.factor_cache.hits, 0u);
  }
}

// ---------------------------------------------------------------------------
// ByteWriter / ByteReader
// ---------------------------------------------------------------------------

TEST(ByteCodec, RoundTripsEveryType) {
  ByteWriter w;
  w.U8(0xAB);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.I64(-42);
  w.F64(-1.5e-300);
  w.Bool(true);
  w.Bool(false);
  w.Str("wavepipe");
  w.Str("");
  w.DoubleVec(std::vector<double>{1.0, -2.5, 3e100});
  w.DoubleVec(std::vector<double>{});

  ByteReader r(w.bytes());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_EQ(r.F64(), -1.5e-300);
  EXPECT_TRUE(r.Bool());
  EXPECT_FALSE(r.Bool());
  EXPECT_EQ(r.Str(), "wavepipe");
  EXPECT_EQ(r.Str(), "");
  EXPECT_EQ(r.DoubleVec(), (std::vector<double>{1.0, -2.5, 3e100}));
  EXPECT_TRUE(r.DoubleVec().empty());
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteCodec, ReaderThrowsOnTruncation) {
  ByteWriter w;
  w.U64(7);
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes.pop_back();
  ByteReader r(bytes);
  EXPECT_THROW(r.U64(), CheckpointError);
}

TEST(ByteCodec, ReaderThrowsOnTruncatedString) {
  ByteWriter w;
  w.Str("hello");
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes.resize(bytes.size() - 2);  // cut into the character data
  ByteReader r(bytes);
  EXPECT_THROW(r.Str(), CheckpointError);
}

TEST(Crc32, MatchesIeeeCheckValue) {
  // The standard CRC-32 check vector: crc32("123456789") == 0xCBF43926.
  const std::string s = "123456789";
  std::vector<std::uint8_t> bytes(s.begin(), s.end());
  EXPECT_EQ(util::Crc32(bytes), 0xCBF43926u);
  EXPECT_EQ(util::Crc32(std::span<const std::uint8_t>{}), 0u);
}

// ---------------------------------------------------------------------------
// Slot write / load
// ---------------------------------------------------------------------------

TEST(CheckpointSlots, RoundTripAndDoubleBuffer) {
  const std::string base = TempBase("slots_roundtrip");
  RemoveSlots(base);
  const std::vector<std::uint8_t> gen0 = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> gen1 = {9, 8, 7};
  const std::vector<std::uint8_t> gen2 = {42};

  util::WriteCheckpointSlot(base, gen0, 0);  // -> .a
  auto loaded = util::LoadNewestCheckpoint(base);
  EXPECT_EQ(loaded.generation, 0u);
  EXPECT_EQ(loaded.payload, gen0);

  util::WriteCheckpointSlot(base, gen1, 1);  // -> .b, .a keeps gen 0
  loaded = util::LoadNewestCheckpoint(base);
  EXPECT_EQ(loaded.generation, 1u);
  EXPECT_EQ(loaded.payload, gen1);

  util::WriteCheckpointSlot(base, gen2, 2);  // overwrites .a
  loaded = util::LoadNewestCheckpoint(base);
  EXPECT_EQ(loaded.generation, 2u);
  EXPECT_EQ(loaded.payload, gen2);
  RemoveSlots(base);
}

TEST(CheckpointSlots, MissingFileThrows) {
  EXPECT_THROW(util::LoadNewestCheckpoint(TempBase("never_written")), CheckpointError);
}

TEST(CheckpointSlots, TruncatedSlotFallsBackToOlderGeneration) {
  const std::string base = TempBase("slots_truncated");
  RemoveSlots(base);
  util::WriteCheckpointSlot(base, std::vector<std::uint8_t>{1, 2, 3}, 4);  // .a
  util::WriteCheckpointSlot(base, std::vector<std::uint8_t>{6, 6, 6}, 5);  // .b
  // Truncate the newer slot mid-payload: a crash during publication.
  {
    std::FILE* f = std::fopen((base + ".b").c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate((base + ".b").c_str(), size - 2), 0);
  }
  const auto loaded = util::LoadNewestCheckpoint(base);
  EXPECT_EQ(loaded.generation, 4u);
  EXPECT_EQ(loaded.payload, (std::vector<std::uint8_t>{1, 2, 3}));
  RemoveSlots(base);
}

TEST(CheckpointSlots, CrcFlipIsRejected) {
  const std::string base = TempBase("slots_crcflip");
  RemoveSlots(base);
  util::WriteCheckpointSlot(base, std::vector<std::uint8_t>{10, 20, 30, 40}, 0);
  // Flip one payload byte on disk; the header CRC no longer matches.
  {
    std::FILE* f = std::fopen((base + ".a").c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 28 + 1, SEEK_SET), 0);  // header is 28 bytes
    const unsigned char flip = 0xFF;
    ASSERT_EQ(std::fwrite(&flip, 1, 1, f), 1u);
    std::fclose(f);
  }
  EXPECT_THROW(util::LoadNewestCheckpoint(base), CheckpointError);
  RemoveSlots(base);
}

TEST(CheckpointSlots, WriteFaultThrowsAndPreservesPreviousSlot) {
  const std::string base = TempBase("slots_writefault");
  RemoveSlots(base);
  util::WriteCheckpointSlot(base, std::vector<std::uint8_t>{5, 5}, 0);
  {
    Schedule schedule;
    schedule.fire = 1;
    ScopedFault fault("ckpt.write", schedule);
    EXPECT_THROW(
        util::WriteCheckpointSlot(base, std::vector<std::uint8_t>{7, 7}, 1),
        CheckpointError);
    EXPECT_EQ(util::fault::Fired("ckpt.write"), 1u);
  }
  const auto loaded = util::LoadNewestCheckpoint(base);
  EXPECT_EQ(loaded.generation, 0u);
  EXPECT_EQ(loaded.payload, (std::vector<std::uint8_t>{5, 5}));
  RemoveSlots(base);
}

TEST(CheckpointSlots, CorruptFaultProducesRejectedFile) {
  const std::string base = TempBase("slots_corruptfault");
  RemoveSlots(base);
  {
    Schedule schedule;
    schedule.fire = 1;
    ScopedFault fault("ckpt.corrupt", schedule);
    util::WriteCheckpointSlot(base, std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6}, 0);
    EXPECT_EQ(util::fault::Fired("ckpt.corrupt"), 1u);
  }
  // The write itself "succeeded" (the corruption models silent media error),
  // but the loader's CRC check must refuse the file.
  EXPECT_THROW(util::LoadNewestCheckpoint(base), CheckpointError);
  RemoveSlots(base);
}

// ---------------------------------------------------------------------------
// TransientCheckpoint payload
// ---------------------------------------------------------------------------

/// One record of the v2 per-step block, which writers filled while the
/// serial engine kept its own step loop.
struct OlderStepRecord {
  double time = 0.0;
  double h = 0.0;
  std::int64_t newton_iterations = 0;
  double lte = 0.0;
  bool accepted = true;
  bool restart_step = false;
};

/// `ck` serialized the way such a writer did: SerializeCheckpoint's bytes
/// with its empty step block replaced by `steps`.  Everything after the block
/// is the trace and the replay seeds, so its length is known from `ck`.
std::vector<std::uint8_t> SerializeWithStepBlock(const TransientCheckpoint& ck,
                                                 std::span<const OlderStepRecord> steps) {
  std::vector<std::uint8_t> payload = engine::SerializeCheckpoint(ck);
  ByteWriter tail;
  tail.DoubleVec(ck.trace_times);
  tail.DoubleVec(ck.trace_values);
  tail.DoubleVec(ck.lu_seed_full);
  tail.DoubleVec(ck.lu_seed_numeric);
  tail.DoubleVec(ck.bbd_seed_full);
  tail.DoubleVec(ck.bbd_seed_numeric);
  tail.U64(ck.context_seeds.size());
  for (const auto& seeds : ck.context_seeds) {
    tail.DoubleVec(seeds.lu_full);
    tail.DoubleVec(seeds.lu_numeric);
    tail.DoubleVec(seeds.bbd_full);
    tail.DoubleVec(seeds.bbd_numeric);
  }
  const std::size_t tail_bytes = tail.Take().size();
  ByteWriter block;
  block.U64(steps.size());
  for (const auto& step : steps) {
    block.F64(step.time);
    block.F64(step.h);
    block.I64(step.newton_iterations);
    block.F64(step.lte);
    block.Bool(step.accepted);
    block.Bool(step.restart_step);
  }
  const std::vector<std::uint8_t> block_bytes = block.Take();
  // The empty block is its 8-byte zero count, right before the tail.
  const auto at = payload.end() - static_cast<std::ptrdiff_t>(tail_bytes + 8);
  EXPECT_EQ(std::vector<std::uint8_t>(at, at + 8), std::vector<std::uint8_t>(8, 0));
  payload.insert(payload.erase(at, at + 8), block_bytes.begin(), block_bytes.end());
  return payload;
}

TransientCheckpoint MakeFullCheckpoint() {
  TransientCheckpoint ck;
  ck.engine = "pipeline";
  ck.scheme = "combined";
  ck.partition_pieces = 4;
  ck.num_unknowns = 3;
  ck.num_probes = 2;
  ck.tstop = 1e-6;
  ck.h = 1e-9;
  ck.restart = false;
  ck.steps_since_restart = 17;
  ck.floor_streak = 2;
  ck.next_breakpoint = 5;
  ck.last_leading_time = 4.5e-7;
  ck.bwp_cooldown = 3;
  ck.consecutive_failures = 1;
  ck.quarantine_rounds_left = 2;
  ck.last_growth_factor = 1.25;
  ck.avg_lead_iters = 3.5;
  ck.avg_repair_iters = 1.5;
  ck.repair_samples = 9;
  ck.sched_u64 = {1, 2, 3, 4};
  ck.sched_f64 = {0.5, 0.25};
  engine::CheckpointLedgerRecord rec;
  rec.id = 7;
  rec.kind = 2;
  rec.time_point = 3e-7;
  rec.seconds = 0.01;
  rec.newton_iterations = 4;
  rec.useful = false;
  rec.deps = {3, 5};
  ck.ledger.push_back(rec);
  engine::CheckpointPoint p;
  p.time = 4.5e-7;
  p.x = {1.0, 2.0, 3.0};
  p.q = {0.1, 0.2};
  p.qdot = {-0.1, -0.2};
  p.auxiliary = true;
  p.ledger_id = 7;
  ck.history.push_back(p);
  ck.stats.steps_accepted = 100;
  ck.stats.newton_iterations = 321;
  ck.stats.dcop_strategy = "direct";
  ck.stats.rescues_attempted[0] = 2;
  ck.trace_times = {0.0, 4.5e-7};
  ck.trace_values = {0.0, 0.0, 1.0, 2.0};
  engine::CheckpointContextSeeds slot;
  slot.lu_full = {1.0, -2.0};
  slot.lu_numeric = {3.0};
  slot.bbd_full = {4.0, 5.0, 6.0};
  slot.bbd_numeric = {};
  ck.context_seeds.push_back(slot);
  ck.context_seeds.push_back(engine::CheckpointContextSeeds{});
  return ck;
}

TEST(CheckpointPayload, SerializeDeserializeRoundTrip) {
  // The payload carries a filled per-step block, as older writers left it:
  // the reader skips it and loses nothing else.
  const TransientCheckpoint ck = MakeFullCheckpoint();
  const std::vector<OlderStepRecord> steps = {{4.5e-7, 1e-9, 3, 0.4, true, false},
                                              {4.6e-7, 1e-8, 5, 2.5, false, true}};
  const auto payload = SerializeWithStepBlock(ck, steps);
  ASSERT_GT(payload.size(), engine::SerializeCheckpoint(ck).size());
  const TransientCheckpoint back = engine::DeserializeCheckpoint(payload);
  EXPECT_EQ(engine::SerializeCheckpoint(back), engine::SerializeCheckpoint(ck));

  EXPECT_EQ(back.engine, ck.engine);
  EXPECT_EQ(back.scheme, ck.scheme);
  EXPECT_EQ(back.partition_pieces, ck.partition_pieces);
  EXPECT_EQ(back.num_unknowns, ck.num_unknowns);
  EXPECT_EQ(back.num_probes, ck.num_probes);
  EXPECT_EQ(back.tstop, ck.tstop);
  EXPECT_EQ(back.h, ck.h);
  EXPECT_EQ(back.restart, ck.restart);
  EXPECT_EQ(back.steps_since_restart, ck.steps_since_restart);
  EXPECT_EQ(back.floor_streak, ck.floor_streak);
  EXPECT_EQ(back.next_breakpoint, ck.next_breakpoint);
  EXPECT_EQ(back.last_leading_time, ck.last_leading_time);
  EXPECT_EQ(back.bwp_cooldown, ck.bwp_cooldown);
  EXPECT_EQ(back.sched_u64, ck.sched_u64);
  EXPECT_EQ(back.sched_f64, ck.sched_f64);
  ASSERT_EQ(back.ledger.size(), 1u);
  EXPECT_EQ(back.ledger[0].id, 7);
  EXPECT_EQ(back.ledger[0].deps, (std::vector<std::int64_t>{3, 5}));
  ASSERT_EQ(back.history.size(), 1u);
  EXPECT_EQ(back.history[0].x, ck.history[0].x);
  EXPECT_EQ(back.history[0].ledger_id, 7);
  EXPECT_TRUE(back.history[0].auxiliary);
  EXPECT_EQ(back.stats.steps_accepted, 100u);
  EXPECT_EQ(back.stats.newton_iterations, 321u);
  EXPECT_EQ(back.stats.dcop_strategy, "direct");
  EXPECT_EQ(back.stats.rescues_attempted[0], 2u);
  EXPECT_EQ(back.trace_times, ck.trace_times);
  EXPECT_EQ(back.trace_values, ck.trace_values);
  ASSERT_EQ(back.context_seeds.size(), 2u);
  EXPECT_EQ(back.context_seeds[0].lu_full, ck.context_seeds[0].lu_full);
  EXPECT_EQ(back.context_seeds[0].lu_numeric, ck.context_seeds[0].lu_numeric);
  EXPECT_EQ(back.context_seeds[0].bbd_full, ck.context_seeds[0].bbd_full);
  EXPECT_TRUE(back.context_seeds[0].bbd_numeric.empty());
  EXPECT_TRUE(back.context_seeds[1].lu_full.empty());
}

TEST(CheckpointPayload, TruncatedPayloadThrows) {
  auto payload = engine::SerializeCheckpoint(MakeFullCheckpoint());
  payload.resize(payload.size() / 2);
  EXPECT_THROW(engine::DeserializeCheckpoint(payload), CheckpointError);
}

TEST(CheckpointPayload, TrailingGarbageThrows) {
  auto payload = engine::SerializeCheckpoint(MakeFullCheckpoint());
  payload.push_back(0);
  EXPECT_THROW(engine::DeserializeCheckpoint(payload), CheckpointError);
}

TEST(CheckpointPayload, ValidateResumeRejectsMismatches) {
  const TransientCheckpoint ck = MakeFullCheckpoint();
  EXPECT_NO_THROW(engine::ValidateResume(ck, "pipeline", "combined", 4, 3, 2, 1e-6));
  EXPECT_THROW(engine::ValidateResume(ck, "serial", "combined", 4, 3, 2, 1e-6),
               CheckpointError);
  EXPECT_THROW(engine::ValidateResume(ck, "pipeline", "combined", 2, 3, 2, 1e-6),
               CheckpointError);
  EXPECT_THROW(engine::ValidateResume(ck, "pipeline", "combined", 4, 8, 2, 1e-6),
               CheckpointError);
  EXPECT_THROW(engine::ValidateResume(ck, "pipeline", "combined", 4, 3, 2, 2e-6),
               CheckpointError);
}

// ---------------------------------------------------------------------------
// Serial engine: budget abort + bit-identical resume
// ---------------------------------------------------------------------------

class SerialResumeTest : public ::testing::Test {
 protected:
  void TearDown() override { util::fault::DisarmAll(); }
};

TEST_F(SerialResumeTest, BudgetAbortWritesFinalCheckpoint) {
  const auto gen = circuits::MakeRcMesh(6, 6);
  engine::MnaStructure mna(*gen.circuit);
  const std::string base = TempBase("serial_budget");
  RemoveSlots(base);

  engine::SimOptions options;
  options.resilience.checkpoint_path = base;
  options.resilience.max_steps = 5;
  const auto result = engine::RunTransientSerial(*gen.circuit, mna, gen.spec, options);

  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.abort_reason.find(engine::kBudgetExhausted), std::string::npos)
      << result.abort_reason;
  EXPECT_EQ(result.stats.steps_accepted, 5u);
  EXPECT_EQ(result.resilience.budget_exhausted, 1u);
  EXPECT_GE(result.resilience.ckpt_writes, 1u);

  const TransientCheckpoint ck = engine::LoadCheckpoint(base);
  EXPECT_EQ(ck.engine, "serial");
  EXPECT_EQ(ck.stats.steps_accepted, 5u);
  EXPECT_FALSE(ck.history.empty());
  // The single-context layout: flat replay seeds, and no scheme, ledger,
  // scheduler state or per-context seeds.
  EXPECT_TRUE(ck.scheme.empty());
  EXPECT_FALSE(ck.lu_seed_full.empty() && ck.lu_seed_numeric.empty());
  EXPECT_TRUE(ck.ledger.empty());
  EXPECT_TRUE(ck.sched_u64.empty());
  EXPECT_TRUE(ck.context_seeds.empty());
  for (const auto& point : ck.history) EXPECT_EQ(point.ledger_id, -1);
  RemoveSlots(base);
}

// The resume property: reference run vs (run killed at step k, resumed) must
// agree BITWISE on the accepted trace and on every deterministic counter.
/// `rewrite`, when given, replaces the loaded checkpoint before the resume.
void ExpectResumeBitIdentical(
    const circuits::GeneratedCircuit& gen, std::uint64_t kill_at_step, const std::string& tag,
    const std::function<TransientCheckpoint(const TransientCheckpoint&)>& rewrite = nullptr) {
  engine::MnaStructure mna(*gen.circuit);
  const std::string base = TempBase("serial_resume_" + tag);
  RemoveSlots(base);

  const engine::SimOptions options;  // defaults
  const auto reference = engine::RunTransientSerial(*gen.circuit, mna, gen.spec, options);
  ASSERT_TRUE(reference.completed) << reference.abort_reason;

  engine::SimOptions first = options;
  first.resilience.checkpoint_path = base;
  first.resilience.max_steps = kill_at_step;
  const auto partial = engine::RunTransientSerial(*gen.circuit, mna, gen.spec, first);
  ASSERT_FALSE(partial.completed);

  TransientCheckpoint ck = engine::LoadCheckpoint(base);
  if (rewrite) ck = rewrite(ck);
  engine::SimOptions second = options;
  second.resilience.resume = &ck;
  const auto resumed = engine::RunTransientSerial(*gen.circuit, mna, gen.spec, second);
  ASSERT_TRUE(resumed.completed) << resumed.abort_reason;
  EXPECT_EQ(resumed.resilience.ckpt_resumed, 1u);

  // Trace: bitwise identical, sample by sample.
  ASSERT_EQ(resumed.trace.num_samples(), reference.trace.num_samples());
  const std::size_t probes = reference.trace.probes().size();
  for (std::size_t s = 0; s < reference.trace.num_samples(); ++s) {
    ASSERT_EQ(resumed.trace.times()[s], reference.trace.times()[s])
        << tag << " sample " << s;
    for (std::size_t p = 0; p < probes; ++p) {
      ASSERT_EQ(resumed.trace.value(s, p), reference.trace.value(s, p))
          << tag << " sample " << s << " probe " << p;
    }
  }

  // Deterministic counters.  lu full/refactor/cache-hit split may
  // legitimately differ (the resumed process's FIRST factorization is a full
  // factor where the uninterrupted run refactored, and its cache starts
  // cold), so those compare as demand totals.
  EXPECT_EQ(resumed.stats.steps_accepted, reference.stats.steps_accepted);
  EXPECT_EQ(resumed.stats.steps_rejected_lte, reference.stats.steps_rejected_lte);
  EXPECT_EQ(resumed.stats.steps_rejected_newton, reference.stats.steps_rejected_newton);
  EXPECT_EQ(resumed.stats.newton_iterations, reference.stats.newton_iterations);
  EXPECT_EQ(FactorDemands(resumed.stats), FactorDemands(reference.stats));
  ExpectCacheHitsConsistent(gen, /*monolithic=*/true, reference.stats, resumed.stats);
  EXPECT_EQ(resumed.last_good_time, reference.last_good_time);
}

TEST_F(SerialResumeTest, RcMeshResumeIsBitIdentical) {
  const auto gen = circuits::MakeRcMesh(8, 8);
  ExpectResumeBitIdentical(gen, 7, "rcmesh_k7");
}

TEST_F(SerialResumeTest, RingOscillatorResumeIsBitIdentical) {
  const auto gen = circuits::MakeRingOscillator(5);
  ExpectResumeBitIdentical(gen, 11, "ringosc_k11");
}

TEST_F(SerialResumeTest, ResumeAtEveryEarlyStepIsBitIdentical) {
  const auto gen = circuits::MakeRcMesh(6, 6);
  for (std::uint64_t k = 1; k <= 6; ++k) {
    ExpectResumeBitIdentical(gen, k, "rcmesh_sweep_k" + std::to_string(k));
  }
}

/// A serial checkpoint in the layout the serial engine wrote while it kept
/// its own step loop: flat replay seeds, one filled step record per accepted
/// sample, no ledger ids, and every field the pipeline driver keeps (ledger,
/// scheduler state, per-context seeds) at its default.  Returned through
/// the bytes, so the reader has to skip the step block.
TransientCheckpoint ThroughOlderSerialLayout(const TransientCheckpoint& written) {
  EXPECT_EQ(written.engine, "serial");
  EXPECT_FALSE(written.lu_seed_full.empty() && written.lu_seed_numeric.empty());
  TransientCheckpoint older;
  older.engine = written.engine;
  older.partition_pieces = written.partition_pieces;
  older.num_unknowns = written.num_unknowns;
  older.num_probes = written.num_probes;
  older.tstop = written.tstop;
  older.h = written.h;
  older.restart = written.restart;
  older.steps_since_restart = written.steps_since_restart;
  older.floor_streak = written.floor_streak;
  older.next_breakpoint = written.next_breakpoint;
  older.history = written.history;
  for (auto& point : older.history) point.ledger_id = -1;
  older.stats = written.stats;
  older.trace_times = written.trace_times;
  older.trace_values = written.trace_values;
  older.lu_seed_full = written.lu_seed_full;
  older.lu_seed_numeric = written.lu_seed_numeric;
  older.bbd_seed_full = written.bbd_seed_full;
  older.bbd_seed_numeric = written.bbd_seed_numeric;
  std::vector<OlderStepRecord> steps;
  for (std::size_t i = 1; i < older.trace_times.size(); ++i) {
    const double h = older.trace_times[i] - older.trace_times[i - 1];
    steps.push_back({older.trace_times[i], h, 2, 0.5, true, i == 1});
  }
  EXPECT_FALSE(steps.empty());
  return engine::DeserializeCheckpoint(SerializeWithStepBlock(older, steps));
}

TEST_F(SerialResumeTest, OlderSerialLayoutResumesBitIdentically) {
  ExpectResumeBitIdentical(circuits::MakeRcMesh(8, 8), 7, "older_rcmesh_k7",
                           ThroughOlderSerialLayout);
  ExpectResumeBitIdentical(circuits::MakeRingOscillator(5), 11, "older_ringosc_k11",
                           ThroughOlderSerialLayout);
  ExpectResumeBitIdentical(ReducedParasiticLadder(), 13, "older_reduce_k13",
                           ThroughOlderSerialLayout);
}

TEST_F(SerialResumeTest, ReducedResumeIsBitIdentical) {
  const auto gen = ReducedParasiticLadder();
  ExpectResumeBitIdentical(gen, 13, "reduce_k13");
}

TEST_F(SerialResumeTest, PartitionedResumeIsBitIdentical) {
  const auto gen = circuits::MakeRcMesh(8, 8);
  engine::MnaStructure mna(*gen.circuit);
  const std::string base = TempBase("serial_resume_partition");
  RemoveSlots(base);

  engine::SimOptions options;
  options.partition_pieces = 4;
  const auto reference = engine::RunTransientSerial(*gen.circuit, mna, gen.spec, options);
  ASSERT_TRUE(reference.completed) << reference.abort_reason;

  engine::SimOptions first = options;
  first.resilience.checkpoint_path = base;
  first.resilience.max_steps = 9;
  const auto partial = engine::RunTransientSerial(*gen.circuit, mna, gen.spec, first);
  ASSERT_FALSE(partial.completed);

  const TransientCheckpoint ck = engine::LoadCheckpoint(base);
  engine::SimOptions second = options;
  second.resilience.resume = &ck;
  const auto resumed = engine::RunTransientSerial(*gen.circuit, mna, gen.spec, second);
  ASSERT_TRUE(resumed.completed) << resumed.abort_reason;

  ASSERT_EQ(resumed.trace.num_samples(), reference.trace.num_samples());
  for (std::size_t s = 0; s < reference.trace.num_samples(); ++s) {
    ASSERT_EQ(resumed.trace.times()[s], reference.trace.times()[s]);
    for (std::size_t p = 0; p < reference.trace.probes().size(); ++p) {
      ASSERT_EQ(resumed.trace.value(s, p), reference.trace.value(s, p));
    }
  }
  EXPECT_EQ(resumed.stats.steps_accepted, reference.stats.steps_accepted);
  EXPECT_EQ(resumed.stats.newton_iterations, reference.stats.newton_iterations);
  EXPECT_EQ(
      resumed.stats.partition_full_factors + resumed.stats.partition_refactors,
      reference.stats.partition_full_factors + reference.stats.partition_refactors);
  RemoveSlots(base);
}

TEST_F(SerialResumeTest, ResumeRejectsMismatchedRun) {
  const auto gen = circuits::MakeRcMesh(6, 6);
  engine::MnaStructure mna(*gen.circuit);
  const std::string base = TempBase("serial_resume_mismatch");
  RemoveSlots(base);

  engine::SimOptions first;
  first.resilience.checkpoint_path = base;
  first.resilience.max_steps = 3;
  (void)engine::RunTransientSerial(*gen.circuit, mna, gen.spec, first);

  const TransientCheckpoint ck = engine::LoadCheckpoint(base);
  // Same checkpoint, DIFFERENT partitioning: the fingerprint must refuse.
  engine::SimOptions second;
  second.partition_pieces = 4;
  second.resilience.resume = &ck;
  EXPECT_THROW(engine::RunTransientSerial(*gen.circuit, mna, gen.spec, second),
               CheckpointError);
  RemoveSlots(base);
}

TEST_F(SerialResumeTest, CkptWriteFaultCountsFailureButRunSurvives) {
  const auto gen = circuits::MakeRcMesh(6, 6);
  engine::MnaStructure mna(*gen.circuit);
  const std::string base = TempBase("serial_writefault");
  RemoveSlots(base);

  Schedule schedule;
  schedule.fire = Schedule::kUnlimited;
  ScopedFault fault("ckpt.write", schedule);
  engine::SimOptions options;
  options.resilience.checkpoint_path = base;
  options.resilience.checkpoint_every_steps = 2;
  const auto result = engine::RunTransientSerial(*gen.circuit, mna, gen.spec, options);
  EXPECT_TRUE(result.completed) << result.abort_reason;
  EXPECT_GE(result.resilience.ckpt_write_failures, 1u);
  EXPECT_EQ(result.resilience.ckpt_writes, 0u);
  RemoveSlots(base);
}

// ---------------------------------------------------------------------------
// Fine-grained engine resume
// ---------------------------------------------------------------------------

class FineGrainedResumeTest : public ::testing::Test {
 protected:
  void TearDown() override { util::fault::DisarmAll(); }
};

// Same property as the serial suite, through parallel::RunTransientFineGrained:
// threaded device evaluation must not perturb the resumed trajectory.
void ExpectFineGrainedResumeBitIdentical(const circuits::GeneratedCircuit& gen,
                                         std::uint64_t kill_at_step,
                                         std::int64_t partition_pieces,
                                         const std::string& tag) {
  engine::MnaStructure mna(*gen.circuit);
  const std::string base = TempBase("finegrained_resume_" + tag);
  RemoveSlots(base);

  parallel::FineGrainedOptions options;
  options.threads = 2;
  options.sim.partition_pieces = static_cast<int>(partition_pieces);
  const auto reference =
      parallel::RunTransientFineGrained(*gen.circuit, mna, gen.spec, options);
  ASSERT_TRUE(reference.completed) << reference.abort_reason;

  parallel::FineGrainedOptions first = options;
  first.sim.resilience.checkpoint_path = base;
  first.sim.resilience.max_steps = kill_at_step;
  const auto partial =
      parallel::RunTransientFineGrained(*gen.circuit, mna, gen.spec, first);
  ASSERT_FALSE(partial.completed);
  ASSERT_NE(partial.abort_reason.find(engine::kBudgetExhausted), std::string::npos)
      << partial.abort_reason;

  const TransientCheckpoint ck = engine::LoadCheckpoint(base);
  EXPECT_EQ(ck.engine, "fine-grained");
  parallel::FineGrainedOptions second = options;
  second.sim.resilience.resume = &ck;
  const auto resumed =
      parallel::RunTransientFineGrained(*gen.circuit, mna, gen.spec, second);
  ASSERT_TRUE(resumed.completed) << resumed.abort_reason;
  EXPECT_EQ(resumed.resilience.ckpt_resumed, 1u);

  ASSERT_EQ(resumed.trace.num_samples(), reference.trace.num_samples());
  const std::size_t probes = reference.trace.probes().size();
  for (std::size_t s = 0; s < reference.trace.num_samples(); ++s) {
    ASSERT_EQ(resumed.trace.times()[s], reference.trace.times()[s])
        << tag << " sample " << s;
    for (std::size_t p = 0; p < probes; ++p) {
      ASSERT_EQ(resumed.trace.value(s, p), reference.trace.value(s, p))
          << tag << " sample " << s << " probe " << p;
    }
  }

  EXPECT_EQ(resumed.stats.steps_accepted, reference.stats.steps_accepted);
  EXPECT_EQ(resumed.stats.steps_rejected_lte, reference.stats.steps_rejected_lte);
  EXPECT_EQ(resumed.stats.steps_rejected_newton,
            reference.stats.steps_rejected_newton);
  EXPECT_EQ(resumed.stats.newton_iterations, reference.stats.newton_iterations);
  EXPECT_EQ(FactorDemands(resumed.stats), FactorDemands(reference.stats));
  ExpectCacheHitsConsistent(gen, partition_pieces == 0, reference.stats, resumed.stats);
  EXPECT_EQ(resumed.last_good_time, reference.last_good_time);
  RemoveSlots(base);
}

TEST_F(FineGrainedResumeTest, RcMeshResumeIsBitIdentical) {
  const auto gen = circuits::MakeRcMesh(8, 8);
  ExpectFineGrainedResumeBitIdentical(gen, 7, 0, "rcmesh_k7");
}

TEST_F(FineGrainedResumeTest, RingOscillatorResumeIsBitIdentical) {
  const auto gen = circuits::MakeRingOscillator(5);
  ExpectFineGrainedResumeBitIdentical(gen, 11, 0, "ringosc_k11");
}

TEST_F(FineGrainedResumeTest, PartitionedResumeIsBitIdentical) {
  const auto gen = circuits::MakeRcMesh(8, 8);
  ExpectFineGrainedResumeBitIdentical(gen, 9, 4, "rcmesh_p4_k9");
}

TEST_F(FineGrainedResumeTest, ResumeRejectsSerialCheckpoint) {
  // An engine mismatch (serial checkpoint into the fine-grained runner) must
  // refuse at ValidateResume, not silently continue.
  const auto gen = circuits::MakeRcMesh(6, 6);
  engine::MnaStructure mna(*gen.circuit);
  const std::string base = TempBase("finegrained_engine_mismatch");
  RemoveSlots(base);

  engine::SimOptions serial;
  serial.resilience.checkpoint_path = base;
  serial.resilience.max_steps = 3;
  (void)engine::RunTransientSerial(*gen.circuit, mna, gen.spec, serial);

  const TransientCheckpoint ck = engine::LoadCheckpoint(base);
  parallel::FineGrainedOptions options;
  options.threads = 2;
  options.sim.resilience.resume = &ck;
  EXPECT_THROW(parallel::RunTransientFineGrained(*gen.circuit, mna, gen.spec, options),
               CheckpointError);
  RemoveSlots(base);
}

// ---------------------------------------------------------------------------
// Pipeline engine resume (round-barrier checkpoints)
// ---------------------------------------------------------------------------

class PipelineResumeTest : public ::testing::Test {
 protected:
  void TearDown() override { util::fault::DisarmAll(); }
};

// The pipeline checkpoints at round barriers; the budget governor stops at
// the first barrier where >= kill_at_step steps are accepted — exactly a
// state the uninterrupted reference run also passes through, so the resumed
// run's complete trace must match the reference bitwise.
void ExpectPipelineResumeBitIdentical(const circuits::GeneratedCircuit& gen,
                                      pipeline::Scheme scheme, int threads,
                                      std::uint64_t kill_at_step,
                                      int partition_pieces, const std::string& tag) {
  engine::MnaStructure mna(*gen.circuit);
  const std::string base = TempBase("pipeline_resume_" + tag);
  RemoveSlots(base);

  pipeline::WavePipeOptions options;
  options.scheme = scheme;
  options.threads = threads;
  options.sim.partition_pieces = partition_pieces;
  const auto reference = pipeline::RunWavePipe(*gen.circuit, mna, gen.spec, options);
  ASSERT_TRUE(reference.completed) << reference.abort_reason;

  pipeline::WavePipeOptions first = options;
  first.sim.resilience.checkpoint_path = base;
  first.sim.resilience.max_steps = kill_at_step;
  const auto partial = pipeline::RunWavePipe(*gen.circuit, mna, gen.spec, first);
  ASSERT_FALSE(partial.completed);
  ASSERT_NE(partial.abort_reason.find(engine::kBudgetExhausted), std::string::npos)
      << partial.abort_reason;

  const TransientCheckpoint ck = engine::LoadCheckpoint(base);
  EXPECT_EQ(ck.engine, "pipeline");
  EXPECT_EQ(ck.scheme, pipeline::SchemeName(scheme));
  pipeline::WavePipeOptions second = options;
  second.sim.resilience.resume = &ck;
  const auto resumed = pipeline::RunWavePipe(*gen.circuit, mna, gen.spec, second);
  ASSERT_TRUE(resumed.completed) << resumed.abort_reason;
  EXPECT_EQ(resumed.resilience.ckpt_resumed, 1u);

  ASSERT_EQ(resumed.trace.num_samples(), reference.trace.num_samples());
  const std::size_t probes = reference.trace.probes().size();
  for (std::size_t s = 0; s < reference.trace.num_samples(); ++s) {
    ASSERT_EQ(resumed.trace.times()[s], reference.trace.times()[s])
        << tag << " sample " << s;
    for (std::size_t p = 0; p < probes; ++p) {
      ASSERT_EQ(resumed.trace.value(s, p), reference.trace.value(s, p))
          << tag << " sample " << s << " probe " << p;
    }
  }

  EXPECT_EQ(resumed.stats.steps_accepted, reference.stats.steps_accepted);
  EXPECT_EQ(resumed.stats.steps_rejected_lte, reference.stats.steps_rejected_lte);
  EXPECT_EQ(resumed.stats.steps_rejected_newton,
            reference.stats.steps_rejected_newton);
  EXPECT_EQ(resumed.stats.newton_iterations, reference.stats.newton_iterations);
  EXPECT_EQ(FactorDemands(resumed.stats), FactorDemands(reference.stats));
  ExpectCacheHitsConsistent(gen, partition_pieces == 0, reference.stats, resumed.stats);
  // The scheduler replays the same rounds and ledger after resume.
  EXPECT_EQ(resumed.sched.rounds, reference.sched.rounds);
  EXPECT_EQ(resumed.ledger.size(), reference.ledger.size());
  EXPECT_EQ(resumed.last_good_time, reference.last_good_time);
  RemoveSlots(base);
}

TEST_F(PipelineResumeTest, SerialSchemeResumeIsBitIdentical) {
  const auto gen = circuits::MakeRcMesh(8, 8);
  ExpectPipelineResumeBitIdentical(gen, pipeline::Scheme::kSerial, 1, 7, 0,
                                   "serial_k7");
}

TEST_F(PipelineResumeTest, BackwardResumeIsBitIdentical) {
  const auto gen = circuits::MakeRingOscillator(5);
  ExpectPipelineResumeBitIdentical(gen, pipeline::Scheme::kBackward, 3, 9, 0,
                                   "bwp_k9");
}

TEST_F(PipelineResumeTest, ForwardResumeIsBitIdentical) {
  const auto gen = circuits::MakeRcMesh(8, 8);
  ExpectPipelineResumeBitIdentical(gen, pipeline::Scheme::kForward, 2, 5, 0,
                                   "fwp_k5");
}

TEST_F(PipelineResumeTest, CombinedResumeIsBitIdentical) {
  const auto gen = circuits::MakeRcMesh(8, 8);
  ExpectPipelineResumeBitIdentical(gen, pipeline::Scheme::kCombined, 3, 7, 0,
                                   "combined_k7");
}

TEST_F(PipelineResumeTest, CombinedReducedResumeIsBitIdentical) {
  const auto gen = ReducedParasiticLadder();
  ExpectPipelineResumeBitIdentical(gen, pipeline::Scheme::kCombined, 3, 13, 0,
                                   "combined_reduce_k13");
}

TEST_F(PipelineResumeTest, CombinedPartitionedResumeIsBitIdentical) {
  const auto gen = circuits::MakeRcMesh(8, 8);
  ExpectPipelineResumeBitIdentical(gen, pipeline::Scheme::kCombined, 3, 9, 4,
                                   "combined_p4_k9");
}

TEST_F(PipelineResumeTest, ResumeRejectsSchemeMismatch) {
  const auto gen = circuits::MakeRcMesh(6, 6);
  engine::MnaStructure mna(*gen.circuit);
  const std::string base = TempBase("pipeline_scheme_mismatch");
  RemoveSlots(base);

  pipeline::WavePipeOptions first;
  first.scheme = pipeline::Scheme::kCombined;
  first.threads = 3;
  first.sim.resilience.checkpoint_path = base;
  first.sim.resilience.max_steps = 3;
  (void)pipeline::RunWavePipe(*gen.circuit, mna, gen.spec, first);

  const TransientCheckpoint ck = engine::LoadCheckpoint(base);
  pipeline::WavePipeOptions second;
  second.scheme = pipeline::Scheme::kForward;  // fingerprint mismatch
  second.threads = 2;
  second.sim.resilience.resume = &ck;
  EXPECT_THROW(pipeline::RunWavePipe(*gen.circuit, mna, gen.spec, second),
               CheckpointError);
  RemoveSlots(base);
}

}  // namespace
}  // namespace wavepipe

#include "engine/resilience.hpp"

#include <chrono>

#include "util/checkpoint.hpp"
#include "util/fault.hpp"
#include "util/telemetry.hpp"

namespace wavepipe::engine {
namespace {

using util::ByteReader;
using util::ByteWriter;
using util::CheckpointError;

/// EWMA smoothing for the breaker diagnostics (same spirit as the driver's
/// iteration-cost EMAs).
constexpr double kBreakerEma = 0.1;

void WriteStats(ByteWriter& w, const TransientStats& s) {
  w.U64(s.steps_accepted);
  w.U64(s.steps_rejected_lte);
  w.U64(s.steps_rejected_newton);
  for (const auto v : s.rescues_attempted) w.U64(v);
  for (const auto v : s.rescues_succeeded) w.U64(v);
  w.U64(s.newton_iterations);
  w.U64(s.lu_full_factors);
  w.U64(s.lu_refactors);
  w.U64(s.bypassed_evals);
  w.U64(s.bypass_full_evals);
  w.U64(s.chord_solves);
  w.U64(s.forced_refactors);
  w.U64(s.bypass_auto_disables);
  w.F64(s.wall_seconds);
  w.Str(s.dcop_strategy);
  w.I64(s.factor_levels);
  w.U64(s.factor_widest_level);
  w.F64(s.modeled_refactor_speedup2);
  w.F64(s.modeled_refactor_speedup4);
  w.U64(s.lu_parallel_refactors);
  w.U64(s.lu_refactor_fallbacks);
  w.U64(s.lu_parallel_solves);
  w.I64(s.partition_pieces);
  w.U64(s.partition_interface_size);
  w.F64(s.partition_piece_imbalance);
  w.U64(s.partition_full_factors);
  w.U64(s.partition_refactors);
  w.U64(s.partition_solves);
  w.U64(s.partition_schur_factors);
  w.U64(s.partition_schur_nnz);
  w.F64(s.partition_schur_seconds);
  w.U64(s.factor_cache.hits);
  w.U64(s.factor_cache.misses);
  w.U64(s.factor_cache.evictions);
  w.U64(s.factor_cache.peak_bytes);
}

TransientStats ReadStats(ByteReader& r) {
  TransientStats s;
  s.steps_accepted = r.U64();
  s.steps_rejected_lte = r.U64();
  s.steps_rejected_newton = r.U64();
  for (auto& v : s.rescues_attempted) v = r.U64();
  for (auto& v : s.rescues_succeeded) v = r.U64();
  s.newton_iterations = r.U64();
  s.lu_full_factors = r.U64();
  s.lu_refactors = r.U64();
  s.bypassed_evals = r.U64();
  s.bypass_full_evals = r.U64();
  s.chord_solves = r.U64();
  s.forced_refactors = r.U64();
  s.bypass_auto_disables = r.U64();
  s.wall_seconds = r.F64();
  s.dcop_strategy = r.Str();
  s.factor_levels = static_cast<int>(r.I64());
  s.factor_widest_level = r.U64();
  s.modeled_refactor_speedup2 = r.F64();
  s.modeled_refactor_speedup4 = r.F64();
  s.lu_parallel_refactors = r.U64();
  s.lu_refactor_fallbacks = r.U64();
  s.lu_parallel_solves = r.U64();
  s.partition_pieces = static_cast<int>(r.I64());
  s.partition_interface_size = r.U64();
  s.partition_piece_imbalance = r.F64();
  s.partition_full_factors = r.U64();
  s.partition_refactors = r.U64();
  s.partition_solves = r.U64();
  s.partition_schur_factors = r.U64();
  s.partition_schur_nnz = r.U64();
  s.partition_schur_seconds = r.F64();
  s.factor_cache.hits = r.U64();
  s.factor_cache.misses = r.U64();
  s.factor_cache.evictions = r.U64();
  s.factor_cache.peak_bytes = r.U64();
  return s;
}

}  // namespace

const char* FeatureName(Feature feature) {
  switch (feature) {
    case Feature::kChord: return "chord";
    case Feature::kBypass: return "bypass";
    case Feature::kPartition: return "partition";
    case Feature::kParallelFactor: return "parallel_factor";
    case Feature::kParallelAssembly: return "parallel_assembly";
  }
  return "?";
}

void ResilienceStats::ExportCounters(util::telemetry::CounterRegistry& registry) const {
  registry.Count("ckpt.writes", ckpt_writes);
  registry.Count("ckpt.write_failures", ckpt_write_failures);
  registry.Count("ckpt.bytes_last", ckpt_bytes_last);
  registry.Count("ckpt.generation", ckpt_generation);
  registry.Count("ckpt.resumed", ckpt_resumed);
  registry.Count("watchdog.stalls", watchdog_stalls);
  registry.Count("watchdog.escalations", watchdog_escalations);
  registry.Count("resilience.breaker_trips", breaker_trips);
  registry.Count("resilience.breaker_retrips", breaker_retrips);
  registry.Count("resilience.breaker_reprobes", breaker_reprobes);
  for (int f = 0; f < kNumFeatures; ++f) {
    registry.Count(std::string("resilience.trips.") +
                       FeatureName(static_cast<Feature>(f)),
                   feature_trips[static_cast<std::size_t>(f)]);
  }
  registry.Count("resilience.budget_exhausted", budget_exhausted);
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> SerializeCheckpoint(const TransientCheckpoint& ckpt) {
  ByteWriter w;
  w.Str(ckpt.engine);
  w.Str(ckpt.scheme);
  w.I64(ckpt.partition_pieces);
  w.U64(ckpt.num_unknowns);
  w.U64(ckpt.num_probes);
  w.F64(ckpt.tstop);

  w.F64(ckpt.h);
  w.Bool(ckpt.restart);
  w.U64(ckpt.steps_since_restart);
  w.U64(ckpt.floor_streak);
  w.U64(ckpt.next_breakpoint);

  w.F64(ckpt.last_leading_time);
  w.U64(ckpt.bwp_cooldown);
  w.U64(ckpt.consecutive_failures);
  w.U64(ckpt.quarantine_rounds_left);
  w.F64(ckpt.last_growth_factor);
  w.F64(ckpt.avg_lead_iters);
  w.F64(ckpt.avg_repair_iters);
  w.U64(ckpt.repair_samples);
  w.U64(ckpt.sched_u64.size());
  for (const auto v : ckpt.sched_u64) w.U64(v);
  w.DoubleVec(ckpt.sched_f64);
  w.U64(ckpt.ledger.size());
  for (const auto& rec : ckpt.ledger) {
    w.I64(rec.id);
    w.U8(rec.kind);
    w.F64(rec.time_point);
    w.F64(rec.seconds);
    w.I64(rec.newton_iterations);
    w.Bool(rec.useful);
    w.U64(rec.deps.size());
    for (const auto dep : rec.deps) w.I64(dep);
  }

  w.U64(ckpt.history.size());
  for (const auto& point : ckpt.history) {
    w.F64(point.time);
    w.DoubleVec(point.x);
    w.DoubleVec(point.q);
    w.DoubleVec(point.qdot);
    w.Bool(point.auxiliary);
    w.I64(point.ledger_id);
  }

  WriteStats(w, ckpt.stats);

  // The v2 per-step block (time, h, iterations, lte, accepted, restart) is
  // no longer kept: written empty, skipped when an older writer filled it.
  w.U64(0);

  w.DoubleVec(ckpt.trace_times);
  w.DoubleVec(ckpt.trace_values);

  w.DoubleVec(ckpt.lu_seed_full);
  w.DoubleVec(ckpt.lu_seed_numeric);
  w.DoubleVec(ckpt.bbd_seed_full);
  w.DoubleVec(ckpt.bbd_seed_numeric);
  w.U64(ckpt.context_seeds.size());
  for (const auto& seeds : ckpt.context_seeds) {
    w.DoubleVec(seeds.lu_full);
    w.DoubleVec(seeds.lu_numeric);
    w.DoubleVec(seeds.bbd_full);
    w.DoubleVec(seeds.bbd_numeric);
  }
  return w.Take();
}

TransientCheckpoint DeserializeCheckpoint(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  TransientCheckpoint ckpt;
  ckpt.engine = r.Str();
  ckpt.scheme = r.Str();
  ckpt.partition_pieces = r.I64();
  ckpt.num_unknowns = r.U64();
  ckpt.num_probes = r.U64();
  ckpt.tstop = r.F64();

  ckpt.h = r.F64();
  ckpt.restart = r.Bool();
  ckpt.steps_since_restart = r.U64();
  ckpt.floor_streak = r.U64();
  ckpt.next_breakpoint = r.U64();

  ckpt.last_leading_time = r.F64();
  ckpt.bwp_cooldown = r.U64();
  ckpt.consecutive_failures = r.U64();
  ckpt.quarantine_rounds_left = r.U64();
  ckpt.last_growth_factor = r.F64();
  ckpt.avg_lead_iters = r.F64();
  ckpt.avg_repair_iters = r.F64();
  ckpt.repair_samples = r.U64();
  const std::uint64_t sched_n = r.U64();
  ckpt.sched_u64.reserve(sched_n);
  for (std::uint64_t i = 0; i < sched_n; ++i) ckpt.sched_u64.push_back(r.U64());
  ckpt.sched_f64 = r.DoubleVec();
  const std::uint64_t ledger_n = r.U64();
  ckpt.ledger.reserve(ledger_n);
  for (std::uint64_t i = 0; i < ledger_n; ++i) {
    CheckpointLedgerRecord rec;
    rec.id = r.I64();
    rec.kind = r.U8();
    rec.time_point = r.F64();
    rec.seconds = r.F64();
    rec.newton_iterations = r.I64();
    rec.useful = r.Bool();
    const std::uint64_t deps_n = r.U64();
    rec.deps.reserve(deps_n);
    for (std::uint64_t d = 0; d < deps_n; ++d) rec.deps.push_back(r.I64());
    ckpt.ledger.push_back(std::move(rec));
  }

  const std::uint64_t history_n = r.U64();
  ckpt.history.reserve(history_n);
  for (std::uint64_t i = 0; i < history_n; ++i) {
    CheckpointPoint point;
    point.time = r.F64();
    point.x = r.DoubleVec();
    point.q = r.DoubleVec();
    point.qdot = r.DoubleVec();
    point.auxiliary = r.Bool();
    point.ledger_id = r.I64();
    ckpt.history.push_back(std::move(point));
  }

  ckpt.stats = ReadStats(r);

  const std::uint64_t steps_n = r.U64();
  for (std::uint64_t i = 0; i < steps_n; ++i) {
    (void)r.F64();  // time
    (void)r.F64();  // h
    (void)r.I64();  // Newton iterations
    (void)r.F64();  // lte
    (void)r.Bool();  // accepted
    (void)r.Bool();  // restart step
  }

  ckpt.trace_times = r.DoubleVec();
  ckpt.trace_values = r.DoubleVec();
  ckpt.lu_seed_full = r.DoubleVec();
  ckpt.lu_seed_numeric = r.DoubleVec();
  ckpt.bbd_seed_full = r.DoubleVec();
  ckpt.bbd_seed_numeric = r.DoubleVec();
  const std::uint64_t ctx_seeds_n = r.U64();
  ckpt.context_seeds.reserve(ctx_seeds_n);
  for (std::uint64_t i = 0; i < ctx_seeds_n; ++i) {
    CheckpointContextSeeds seeds;
    seeds.lu_full = r.DoubleVec();
    seeds.lu_numeric = r.DoubleVec();
    seeds.bbd_full = r.DoubleVec();
    seeds.bbd_numeric = r.DoubleVec();
    ckpt.context_seeds.push_back(std::move(seeds));
  }
  if (!r.AtEnd()) {
    throw CheckpointError("checkpoint payload has " + std::to_string(r.remaining()) +
                          " trailing bytes");
  }
  if (ckpt.num_probes != 0 &&
      ckpt.trace_values.size() != ckpt.trace_times.size() * ckpt.num_probes) {
    throw CheckpointError("checkpoint trace shape mismatch");
  }
  return ckpt;
}

TransientCheckpoint LoadCheckpoint(const std::string& path_base) {
  const util::LoadedCheckpoint loaded = util::LoadNewestCheckpoint(path_base);
  TransientCheckpoint ckpt = DeserializeCheckpoint(loaded.payload);
  ckpt.resume_generation = loaded.generation;
  return ckpt;
}

void ValidateResume(const TransientCheckpoint& ckpt, const std::string& engine,
                    const std::string& scheme, std::int64_t partition_pieces,
                    std::uint64_t num_unknowns, std::uint64_t num_probes,
                    double tstop) {
  std::string mismatches;
  const auto mismatch = [&mismatches](const std::string& field, const std::string& have,
                                      const std::string& want) {
    if (!mismatches.empty()) mismatches += "; ";
    mismatches += field + ": checkpoint has " + have + ", run has " + want;
  };
  if (ckpt.engine != engine) mismatch("engine", ckpt.engine, engine);
  if (ckpt.scheme != scheme) mismatch("scheme", ckpt.scheme, scheme);
  if (ckpt.partition_pieces != partition_pieces) {
    mismatch("partition_pieces", std::to_string(ckpt.partition_pieces),
             std::to_string(partition_pieces));
  }
  if (ckpt.num_unknowns != num_unknowns) {
    mismatch("num_unknowns", std::to_string(ckpt.num_unknowns),
             std::to_string(num_unknowns));
  }
  if (ckpt.num_probes != num_probes) {
    mismatch("num_probes", std::to_string(ckpt.num_probes), std::to_string(num_probes));
  }
  if (ckpt.tstop != tstop) {
    mismatch("tstop", std::to_string(ckpt.tstop), std::to_string(tstop));
  }
  if (!mismatches.empty()) {
    throw CheckpointError("resume checkpoint does not match this run (" + mismatches +
                          ")");
  }
}

// ---------------------------------------------------------------------------
// CheckpointSink
// ---------------------------------------------------------------------------

CheckpointSink::CheckpointSink(const ResilienceOptions& options, ResilienceStats& stats)
    : path_(options.checkpoint_path),
      every_steps_(options.checkpoint_every_steps),
      every_seconds_(options.checkpoint_every_seconds),
      generation_(options.resume != nullptr ? options.resume->resume_generation + 1 : 0),
      stats_(stats) {}

void CheckpointSink::MaybeWrite(
    std::uint64_t accepted_steps,
    const std::function<std::vector<std::uint8_t>()>& serialize) {
  if (!enabled()) return;
  const bool step_due =
      every_steps_ > 0 && accepted_steps >= last_write_steps_ + every_steps_;
  const bool wall_due =
      every_seconds_ > 0 && since_last_write_.Seconds() >= every_seconds_;
  if (!step_due && !wall_due) return;
  last_write_steps_ = accepted_steps;
  Write(serialize);
}

void CheckpointSink::WriteFinal(
    const std::function<std::vector<std::uint8_t>()>& serialize) {
  if (!enabled()) return;
  Write(serialize);
}

void CheckpointSink::Write(
    const std::function<std::vector<std::uint8_t>()>& serialize) {
  WP_TSPAN("ckpt", "checkpoint_write");
  since_last_write_.Reset();
  try {
    const std::vector<std::uint8_t> payload = serialize();
    const std::size_t bytes = util::WriteCheckpointSlot(path_, payload, generation_);
    stats_.ckpt_bytes_last = bytes;
    stats_.ckpt_generation = generation_;
    ++stats_.ckpt_writes;
    ++generation_;
  } catch (const CheckpointError&) {
    ++stats_.ckpt_write_failures;
  }
}

// ---------------------------------------------------------------------------
// RunBudget
// ---------------------------------------------------------------------------

std::string RunBudget::Exceeded(std::uint64_t accepted_steps, std::uint64_t newton_total,
                                double wall_seconds) const {
  if (max_steps_ > 0 && accepted_steps >= max_steps_) {
    return std::string(kBudgetExhausted) + ": accepted steps reached --max-steps " +
           std::to_string(max_steps_);
  }
  if (max_newton_ > 0 && newton_total >= max_newton_) {
    return std::string(kBudgetExhausted) +
           ": Newton iterations reached --max-newton-total " + std::to_string(max_newton_);
  }
  if (max_wall_ > 0 && wall_seconds >= max_wall_) {
    return std::string(kBudgetExhausted) + ": wall clock reached --max-wall " +
           std::to_string(max_wall_) + "s";
  }
  return {};
}

// ---------------------------------------------------------------------------
// StallWatchdog
// ---------------------------------------------------------------------------

StallWatchdog::StallWatchdog(const ResilienceOptions& options, ResilienceStats& stats)
    : enabled_(options.watchdog),
      interval_seconds_(options.watchdog_interval_seconds),
      stall_intervals_(options.watchdog_stall_intervals),
      stats_(stats) {}

StallWatchdog::~StallWatchdog() { Stop(); }

void StallWatchdog::AddSource(const std::atomic<std::uint64_t>* beat) {
  WP_ASSERT(!thread_.joinable());
  sources_.push_back(beat);
}

void StallWatchdog::Start() {
  if (!enabled_ || thread_.joinable()) return;
  stopping_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void StallWatchdog::Stop() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void StallWatchdog::Finish() {
  Stop();
  stats_.watchdog_stalls = stalls_.load(std::memory_order_relaxed);
}

std::string StallWatchdog::AbortReason() const {
  return "watchdog stall: no heartbeat progress for " +
         std::to_string(stall_intervals_) + " intervals of " +
         std::to_string(interval_seconds_) + "s";
}

std::uint64_t StallWatchdog::SampleSum() const {
  std::uint64_t sum = 0;
  for (const auto* beat : sources_) sum += beat->load(std::memory_order_relaxed);
  return sum;
}

void StallWatchdog::Loop() {
  util::telemetry::ScopedLane lane(63, "watchdog");
  std::uint64_t last_sum = SampleSum();
  int no_progress = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    const auto wait = std::chrono::duration<double>(interval_seconds_);
    cv_.wait_for(lock, wait, [this] { return stopping_; });
    if (stopping_) break;
    lock.unlock();
    const std::uint64_t sum = SampleSum();
    const bool forced = util::fault::Enabled() && WP_FAULT_POINT("watchdog.stall");
    if (sum == last_sum || forced) {
      ++no_progress;
      if (no_progress == stall_intervals_) {
        stalls_.fetch_add(1, std::memory_order_relaxed);
        WP_TINSTANT("watchdog", "stall_detected");
        escalate_.store(true, std::memory_order_release);
      }
    } else {
      no_progress = 0;
    }
    last_sum = sum;
    samples_.fetch_add(1, std::memory_order_release);
    lock.lock();
  }
}

// ---------------------------------------------------------------------------
// BreakerBoard
// ---------------------------------------------------------------------------

BreakerBoard::BreakerBoard(const ResilienceOptions& options, ResilienceStats& stats)
    : enabled_(options.breakers),
      trip_threshold_(options.breaker_trip_threshold),
      cooldown_steps_(options.breaker_cooldown_steps),
      stats_(stats) {}

void BreakerBoard::Trip(Breaker& breaker, Feature feature) {
  const bool retrip = breaker.state == State::kHalfOpen;
  breaker.state = State::kOpen;
  breaker.consecutive_failures = 0;
  ++breaker.trips;
  // Each re-trip doubles the cooldown: a feature that keeps failing its
  // probes gets exponentially rarer chances to waste work.
  breaker.cooldown_left = cooldown_steps_ << std::min<std::uint64_t>(breaker.trips - 1, 16);
  ++stats_.breaker_trips;
  if (retrip) ++stats_.breaker_retrips;
  ++stats_.feature_trips[static_cast<std::size_t>(feature)];
  WP_TINSTANT("resilience", "breaker_trip");
}

std::uint64_t BreakerBoard::OnSolveOutcome(std::uint64_t active_mask, bool converged,
                                           double seconds) {
  if (!enabled_ || active_mask == 0) return 0;
  const bool forced = util::fault::Enabled() && WP_FAULT_POINT("breaker.trip");
  std::uint64_t tripped = 0;
  for (int f = 0; f < kNumFeatures; ++f) {
    if ((active_mask & FeatureBit(static_cast<Feature>(f))) == 0) continue;
    Breaker& breaker = breakers_[static_cast<std::size_t>(f)];
    if (breaker.state == State::kOpen) continue;
    breaker.failure_ewma =
        (1.0 - kBreakerEma) * breaker.failure_ewma + (converged ? 0.0 : kBreakerEma);
    breaker.latency_ewma =
        (1.0 - kBreakerEma) * breaker.latency_ewma + kBreakerEma * seconds;
    if (converged && !forced) {
      breaker.consecutive_failures = 0;
      if (breaker.state == State::kHalfOpen) breaker.state = State::kClosed;
      continue;
    }
    ++breaker.consecutive_failures;
    if (forced || breaker.state == State::kHalfOpen ||
        breaker.consecutive_failures >= trip_threshold_) {
      Trip(breaker, static_cast<Feature>(f));
      tripped |= FeatureBit(static_cast<Feature>(f));
    }
  }
  return tripped;
}

std::uint64_t BreakerBoard::OnAcceptedStep() {
  if (!enabled_) return 0;
  std::uint64_t reprobe = 0;
  for (int f = 0; f < kNumFeatures; ++f) {
    Breaker& breaker = breakers_[static_cast<std::size_t>(f)];
    if (breaker.state != State::kOpen) continue;
    if (breaker.cooldown_left > 0) --breaker.cooldown_left;
    if (breaker.cooldown_left == 0) {
      breaker.state = State::kHalfOpen;
      breaker.consecutive_failures = 0;
      ++stats_.breaker_reprobes;
      reprobe |= FeatureBit(static_cast<Feature>(f));
    }
  }
  return reprobe;
}

}  // namespace wavepipe::engine

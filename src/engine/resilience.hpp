// Durable runs: the engine-level resilience substrate.
//
//  * TransientCheckpoint  — the complete resumable state of a transient run
//    (history ring, step control, accepted trace, stats, pipeline scheduler
//    state), serialized to the `wavepipe.ckpt.v1` format of
//    util/checkpoint.hpp.  A run resumed from a checkpoint taken at a round
//    boundary of the transient driver (one solve attempt in the serial and
//    fine-grained engines) continues bit-identically: those boundaries are
//    exactly the points where no speculative or in-flight solver state
//    exists, so the snapshot is the whole truth.
//
//  * CheckpointSink       — cadence + atomic double-buffered publication.
//  * RunBudget            — --max-wall/--max-steps/--max-newton-total
//    governor; exhaustion checkpoints then aborts structurally
//    (abort_reason starts with kBudgetExhausted).
//  * StallWatchdog        — monitor thread over cheap heartbeat counters;
//    no-progress intervals escalate checkpoint -> abort.
//  * BreakerBoard         — per-feature circuit-breakers that degrade a
//    misbehaving accelerated path (chord, bypass, partition, parallel
//    factor/assembly) to the bit-identical monolithic serial path, with a
//    half-open re-probe after a cooldown.
//
// Everything is a strict no-op unless the corresponding ResilienceOptions
// field engages it — the default run spawns no threads, writes no files, and
// stays bit-identical to historical behavior.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "engine/options.hpp"
#include "engine/resilience_stats.hpp"
#include "engine/transient.hpp"
#include "util/timer.hpp"

namespace wavepipe::engine {

// ---------------------------------------------------------------------------
// TransientCheckpoint — the resumable state
// ---------------------------------------------------------------------------

/// One history point plus its pipeline ledger id (-1 in the serial and
/// fine-grained layout).
struct CheckpointPoint {
  double time = 0.0;
  std::vector<double> x;
  std::vector<double> q;
  std::vector<double> qdot;
  bool auxiliary = false;
  std::int64_t ledger_id = -1;
};

/// A pipeline ledger record, flattened for serialization (the engine layer
/// carries it opaquely; src/wavepipe packs and unpacks it).
struct CheckpointLedgerRecord {
  std::int64_t id = -1;
  std::uint8_t kind = 0;
  double time_point = 0.0;
  double seconds = 0.0;
  std::int64_t newton_iterations = 0;
  bool useful = true;
  std::vector<std::int64_t> deps;
};

/// Replay seeds of one pipeline SolveContext slot (see FactorSeeds).
struct CheckpointContextSeeds {
  std::vector<double> lu_full;
  std::vector<double> lu_numeric;
  std::vector<double> bbd_full;
  std::vector<double> bbd_numeric;
};

struct TransientCheckpoint {
  // --- run fingerprint: a resume refuses to continue a DIFFERENT run -------
  std::string engine;   ///< "serial" | "fine-grained" | "pipeline"
  std::string scheme;   ///< pipeline scheme name; empty otherwise
  std::int64_t partition_pieces = 0;
  std::uint64_t num_unknowns = 0;
  std::uint64_t num_probes = 0;
  double tstop = 0.0;

  // --- step control at the snapshot boundary -------------------------------
  double h = 0.0;
  bool restart = true;
  std::uint64_t steps_since_restart = 0;
  std::uint64_t floor_streak = 0;
  std::uint64_t next_breakpoint = 0;  ///< index into the breakpoint schedule

  // --- pipeline driver extras (zero/defaulted for the other engines) -------
  double last_leading_time = 0.0;
  std::uint64_t bwp_cooldown = 0;
  std::uint64_t consecutive_failures = 0;
  std::uint64_t quarantine_rounds_left = 0;
  double last_growth_factor = 1.0;
  double avg_lead_iters = 0.0;
  double avg_repair_iters = 0.0;
  std::uint64_t repair_samples = 0;
  /// Scheduler/speculation-policy counters, packed by the pipeline driver
  /// (engine-opaque; counts first, then EWMA-style doubles).
  std::vector<std::uint64_t> sched_u64;
  std::vector<double> sched_f64;
  std::vector<CheckpointLedgerRecord> ledger;

  // --- solution state -------------------------------------------------------
  std::vector<CheckpointPoint> history;  ///< ascending time, newest last
  TransientStats stats;  ///< includes solver stats absorbed AT the snapshot

  // --- accepted trace -------------------------------------------------------
  std::vector<double> trace_times;
  std::vector<double> trace_values;  ///< row-major sample x probe

  // --- linear-solver replay seeds (see FactorSeeds in engine/newton.hpp) ---
  // Empty when the corresponding solver never factored.  Replayed at resume
  // so the first post-resume solve REFACTORS exactly like the uninterrupted
  // run instead of full-factoring with a different summation order.
  std::vector<double> lu_seed_full;
  std::vector<double> lu_seed_numeric;
  std::vector<double> bbd_seed_full;
  std::vector<double> bbd_seed_numeric;
  /// Per-context replay seeds for the pipeline engine (one block per
  /// SolveContext slot — each slot keeps its own LU/BBD numeric state, and
  /// bit-identity needs every slot to refactor post-resume exactly as the
  /// uninterrupted run would have).  Empty for the single-context engines,
  /// which use the flat fields above.
  std::vector<CheckpointContextSeeds> context_seeds;

  /// Generation of the slot this checkpoint was loaded from (resume only);
  /// the resumed run's sink continues at resume_generation + 1.
  std::uint64_t resume_generation = 0;
};

/// Payload (de)serialization for util/checkpoint.hpp.  Deserialize throws
/// util::CheckpointError on any truncation or malformed field.
std::vector<std::uint8_t> SerializeCheckpoint(const TransientCheckpoint& ckpt);
TransientCheckpoint DeserializeCheckpoint(std::span<const std::uint8_t> payload);

/// Loads the newest valid generation at `path_base` and deserializes it.
TransientCheckpoint LoadCheckpoint(const std::string& path_base);

/// Verifies a resume checkpoint matches the run being started (engine,
/// scheme, partitioning, dimensions, horizon); throws util::CheckpointError
/// with a field-by-field message on mismatch.
void ValidateResume(const TransientCheckpoint& ckpt, const std::string& engine,
                    const std::string& scheme, std::int64_t partition_pieces,
                    std::uint64_t num_unknowns, std::uint64_t num_probes,
                    double tstop);

// ---------------------------------------------------------------------------
// CheckpointSink — cadence + publication
// ---------------------------------------------------------------------------

class CheckpointSink {
 public:
  CheckpointSink(const ResilienceOptions& options, ResilienceStats& stats);

  bool enabled() const { return !path_.empty(); }

  /// Publishes a snapshot when the step- or wall-cadence says so.  The
  /// serializer runs only when a write is due.  Write failures (including
  /// the injected ckpt.write fault) are counted, never fatal — losing a
  /// checkpoint must not lose the run.
  void MaybeWrite(std::uint64_t accepted_steps,
                  const std::function<std::vector<std::uint8_t>()>& serialize);

  /// Unconditional best-effort snapshot (budget/watchdog aborts, run end).
  void WriteFinal(const std::function<std::vector<std::uint8_t>()>& serialize);

 private:
  void Write(const std::function<std::vector<std::uint8_t>()>& serialize);

  std::string path_;
  std::uint64_t every_steps_;
  double every_seconds_;
  std::uint64_t generation_;
  std::uint64_t last_write_steps_ = 0;
  util::WallTimer since_last_write_;
  ResilienceStats& stats_;
};

// ---------------------------------------------------------------------------
// RunBudget — the governor
// ---------------------------------------------------------------------------

/// Structured-abort reason prefix for governor stops.
inline constexpr const char* kBudgetExhausted = "budget exhausted";

class RunBudget {
 public:
  explicit RunBudget(const ResilienceOptions& options)
      : max_wall_(options.max_wall_seconds),
        max_steps_(options.max_steps),
        max_newton_(options.max_newton_total) {}

  bool enabled() const { return max_wall_ > 0 || max_steps_ > 0 || max_newton_ > 0; }

  /// Empty when within budget; otherwise the full abort_reason string.
  std::string Exceeded(std::uint64_t accepted_steps, std::uint64_t newton_total,
                       double wall_seconds) const;

 private:
  double max_wall_;
  std::uint64_t max_steps_;
  std::uint64_t max_newton_;
};

// ---------------------------------------------------------------------------
// StallWatchdog
// ---------------------------------------------------------------------------

/// Monitor thread sampling registered heartbeat counters every
/// watchdog_interval_seconds.  When the sum stops advancing for
/// watchdog_stall_intervals consecutive samples (or the `watchdog.stall`
/// fault fires), the stall is recorded (counter + lane-annotated trace
/// instant) and the escalation flag raises; the engine polls it at step/round
/// boundaries and turns it into checkpoint -> structured abort.  The thread
/// only ever touches its own atomics — Finish() folds them into
/// ResilienceStats after Stop().
class StallWatchdog {
 public:
  StallWatchdog(const ResilienceOptions& options, ResilienceStats& stats);
  ~StallWatchdog();

  bool enabled() const { return enabled_; }

  /// Registers a heartbeat source.  All sources must outlive the watchdog;
  /// call before Start().
  void AddSource(const std::atomic<std::uint64_t>* beat);

  void Start();
  void Stop();
  /// Stop() + fold the monitor thread's counts into ResilienceStats.
  void Finish();

  /// True once a stall has persisted past the escalation threshold.
  bool ShouldAbort() const { return escalate_.load(std::memory_order_acquire); }

  /// The structured abort reason for an escalated stall.
  std::string AbortReason() const;

  /// Heartbeat samples taken so far (one per interval while running).
  std::uint64_t samples() const { return samples_.load(std::memory_order_acquire); }

 private:
  void Loop();
  std::uint64_t SampleSum() const;

  bool enabled_;
  double interval_seconds_;
  int stall_intervals_;
  std::vector<const std::atomic<std::uint64_t>*> sources_;
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> samples_{0};
  std::atomic<bool> escalate_{false};
  ResilienceStats& stats_;
};

// ---------------------------------------------------------------------------
// BreakerBoard — feature circuit-breakers
// ---------------------------------------------------------------------------

/// Per-feature breaker: closed -> (K consecutive attributed failures, or the
/// `breaker.trip` fault) -> open for a cooldown of driver rounds -> half-open
/// re-probe -> closed on success / re-open with doubled cooldown on failure.
/// Failure and latency EWMAs are maintained as diagnostics; tripping is
/// driven by the deterministic consecutive-failure count so that identical
/// runs trip identically.
class BreakerBoard {
 public:
  BreakerBoard(const ResilienceOptions& options, ResilienceStats& stats);

  bool enabled() const { return enabled_; }

  /// Records one solve outcome.  `active_mask` has bit (1 << Feature) set for
  /// every feature that participated in the solve; failures are attributed to
  /// all of them.  Returns a mask of features whose breaker JUST tripped —
  /// the engine must degrade those paths before the next solve.
  std::uint64_t OnSolveOutcome(std::uint64_t active_mask, bool converged,
                               double seconds);

  /// Cooldown tick, once per driver round.  Returns a mask of features whose
  /// breaker moved to half-open — the engine re-enables them for one probe
  /// window.
  std::uint64_t OnAcceptedStep();

  bool IsOpen(Feature feature) const {
    return breakers_[static_cast<int>(feature)].state == State::kOpen;
  }

  double FailureEwma(Feature feature) const {
    return breakers_[static_cast<int>(feature)].failure_ewma;
  }
  double LatencyEwma(Feature feature) const {
    return breakers_[static_cast<int>(feature)].latency_ewma;
  }

 private:
  enum class State { kClosed, kOpen, kHalfOpen };
  struct Breaker {
    State state = State::kClosed;
    int consecutive_failures = 0;
    std::uint64_t cooldown_left = 0;
    std::uint64_t trips = 0;
    double failure_ewma = 0.0;
    double latency_ewma = 0.0;
  };

  void Trip(Breaker& breaker, Feature feature);

  bool enabled_;
  int trip_threshold_;
  std::uint64_t cooldown_steps_;
  std::array<Breaker, kNumFeatures> breakers_{};
  ResilienceStats& stats_;
};

}  // namespace wavepipe::engine

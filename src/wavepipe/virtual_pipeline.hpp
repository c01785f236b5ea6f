// Virtual-time replay: list-schedules a Ledger's task DAG onto k workers and
// reports the makespan — a model of multi-core wall clock (see ledger.hpp),
// kept as a diagnostic next to perfbench/'s measured wall clock.
//
// Besides whole-solve records, a ledger can carry INTRA-solve tasks —
// assembly color phases and refactorization columns — appended via
// AppendAssemblyTasks()/AppendFactorTasks().  Replaying such a ledger models
// the fine-grained execution (colored assembly feeding a level-scheduled
// refactorization) on k workers, which is how bench_factor models
// multi-thread factorization throughput.
#pragma once

#include <vector>

#include "parallel/coloring.hpp"
#include "sparse/lu.hpp"
#include "wavepipe/ledger.hpp"

namespace wavepipe::pipeline {

struct ReplayResult {
  int workers = 1;
  double makespan_seconds = 0.0;       ///< modeled parallel runtime
  double busy_seconds = 0.0;           ///< sum of task costs (all workers)
  double critical_path_seconds = 0.0;  ///< longest dependency chain (k = inf bound)
  double utilization = 0.0;            ///< busy / (makespan * workers)
};

/// How task cost is measured during replay.
enum class ReplayCost {
  kMeasuredSeconds,   ///< thread-CPU seconds (reflects this machine)
  kNewtonIterations,  ///< deterministic: 1 unit per Newton iteration.  Noise-
                      ///< free across runs; the right basis for speedup
                      ///< tables when individual solves are microseconds.
};

/// One task placement from a replay: which virtual worker ran ledger record
/// `record` and when.  Times are in the replay's cost unit (seconds or
/// Newton iterations).  This is what the Chrome trace exporter renders as
/// the modeled multi-core timeline, one lane per worker.
struct ReplayTask {
  int record = -1;     ///< index into ledger.records()
  int worker = 0;
  double start = 0.0;
  double finish = 0.0;
};

/// Greedy list scheduling in ledger order (which is the order the real
/// scheduler released the tasks): each task starts at
/// max(earliest worker free time, all deps' finish times).
///
/// When `schedule` is non-null it receives one ReplayTask per ledger record,
/// in ledger order — the full placement behind the returned makespan.
ReplayResult ReplayOnWorkers(const Ledger& ledger, int workers,
                             ReplayCost cost = ReplayCost::kMeasuredSeconds,
                             std::vector<ReplayTask>* schedule = nullptr);

/// Ids of a batch of records appended to a ledger, for chaining further
/// task batches behind it.
struct AppendedTasks {
  int first_id = -1;
  int count = 0;
  /// Appended ids that no other appended record depends on — the batch's
  /// sinks; downstream tasks list these as deps.
  std::vector<int> tail;
};

/// Appends kAssembly records for one conflict-free assembly pass: one record
/// PER DEVICE CHUNK (chunks of kLedgerChunkDevices same-color devices), so
/// the replay can spread a color across workers.  Chunks of one color depend
/// on all chunks of the previous color (colors are barriers); first-color
/// chunks depend on `deps`.  Each record costs (devices in chunk) *
/// seconds_per_device.
AppendedTasks AppendAssemblyTasks(Ledger& ledger, const parallel::ColorSchedule& schedule,
                                  double seconds_per_device, std::vector<int> deps = {});

/// Appends one kFactorColumn record per column of a level-scheduled numeric
/// refactorization of `lu` (which must be factored).  Column j costs
/// column_flops()[j] * seconds_per_flop and depends on exactly its
/// FactorColumnDeps() — the replay therefore explores the true column DAG,
/// not the barrier-per-level relaxation.  Columns with no dependency inside
/// the batch additionally depend on `deps` (e.g. the tail of the assembly
/// pass that produced the matrix).
AppendedTasks AppendFactorTasks(Ledger& ledger, const sparse::SparseLu& lu,
                                double seconds_per_flop, std::vector<int> deps = {});

}  // namespace wavepipe::pipeline

// Work ledger: a dependency-annotated record of every nonlinear solve a
// transient run performed, with its measured cost.
//
// Replaying the ledger models the paper's multi-core wall-clock measurement
// (see DESIGN.md): on an idle k-core machine with free synchronization, the
// pipeline's runtime would be the list-scheduled makespan of exactly these
// tasks under exactly these dependencies.  Real runs pay dispatch, handoff
// and contention on top, so the replayed speedup is an optimistic
// diagnostic; perfbench/ measures the multi-threaded path's wall clock.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace wavepipe::pipeline {

enum class SolveKind {
  kDcop,         ///< operating point (sequential prologue)
  kLeading,      ///< ordinary leading-edge time-point solve
  kBackward,     ///< backward-pipelined auxiliary point
  kSpeculative,  ///< forward-pipelined solve on predicted history
  kRepair,       ///< hot-start correction of an accepted speculative solve
  kRejected,     ///< solve whose step was rejected (LTE or Newton)
  // Intra-solve tasks (finer grain than a whole nonlinear solve): the
  // virtual-time replay schedules these alongside the solve-level records so
  // modeled makespans cover colored assembly and level-scheduled
  // refactorization too (see virtual_pipeline.hpp).
  kAssembly,      ///< one color phase of a conflict-free assembly pass
  kFactorColumn,  ///< one column of a level-scheduled numeric refactorization
};

const char* SolveKindName(SolveKind kind);

struct SolveRecord {
  int id = -1;
  SolveKind kind = SolveKind::kLeading;
  double time_point = 0.0;       ///< circuit time being solved
  double seconds = 0.0;          ///< measured single-thread cost
  int newton_iterations = 0;
  std::vector<int> deps;         ///< ledger ids that must finish first
  bool useful = true;            ///< contributed to the final waveform
};

class Ledger {
 public:
  /// Appends a record, assigning and returning its id.
  int Add(SolveRecord record);

  const std::vector<SolveRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }

  double TotalSeconds() const;
  double UsefulSeconds() const;
  std::size_t CountKind(SolveKind kind) const;
  std::uint64_t TotalNewtonIterations() const;

 private:
  std::vector<SolveRecord> records_;
};

}  // namespace wavepipe::pipeline

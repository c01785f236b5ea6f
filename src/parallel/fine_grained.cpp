#include "parallel/fine_grained.hpp"

#include <algorithm>
#include <memory>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace wavepipe::parallel {

FineGrainedResult RunTransientFineGrained(const engine::Circuit& circuit,
                                          const engine::MnaStructure& structure,
                                          const engine::TransientSpec& spec,
                                          const FineGrainedOptions& options) {
  // One pool serves both colored stamping and level-scheduled LU: the two
  // phases alternate within a Newton iteration, never overlap.  The loop's
  // own thread runs one share of every fork-join.
  const std::unique_ptr<util::ThreadPool> pool =
      util::ThreadPool::ForThreads(std::max(options.threads, options.factor_threads));
  const std::unique_ptr<engine::DeviceAssembler> assembler = MakeAssembler(
      options.assembly, circuit, structure, options.threads, options.coloring, pool.get());

  engine::IntraSolve intra;
  intra.assembler = assembler.get();
  intra.factor_pool = options.factor_threads > 1 ? pool.get() : nullptr;
  intra.pool = pool.get();
  return engine::RunTransientSerial(circuit, structure, spec, options.sim, intra);
}

double ModelFineGrainedSpeedup(const PhaseBreakdown& phases, int threads) {
  WP_ASSERT(threads >= 1);
  const double serial_total = phases.Total() - phases.reduction;  // 1-thread run has no copies
  // With k threads: model eval / k; reduction sweeps k private copies; LU
  // and control untouched.
  const double reduction_k = phases.reduction * threads;
  const double parallel_total =
      phases.model_eval / threads + reduction_k + phases.lu + phases.control;
  return serial_total / parallel_total;
}

}  // namespace wavepipe::parallel

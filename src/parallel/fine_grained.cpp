#include "parallel/fine_grained.hpp"

#include "util/error.hpp"

namespace wavepipe::parallel {

double ModelFineGrainedSpeedup(const PhaseBreakdown& phases, int threads) {
  WP_ASSERT(threads >= 1);
  const double serial_total = phases.Total() - phases.reduction;  // 1-thread run has no copies
  // With k threads: model eval / k; reduction sweeps k private copies (the
  // old full merge, an overstatement now); LU and control untouched.
  const double reduction_k = phases.reduction * threads;
  const double parallel_total =
      phases.model_eval / threads + reduction_k + phases.lu + phases.control;
  return serial_total / parallel_total;
}

}  // namespace wavepipe::parallel

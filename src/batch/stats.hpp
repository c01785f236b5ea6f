// Aggregate counters of one batch run, exported as the `batch.*` group of
// run_stats.json (schema v1.4, appended after `reduce.*`).
//
// Header-only on purpose: wavepipe/trace_export.cpp exports the group for
// EVERY engine (all zeros outside batch mode, keeping the schema key set
// structurally identical across engines), and wp_batch links wp_wavepipe —
// a compiled BatchStats inside wp_batch would make the dependency circular.
#pragma once

#include <cstdint>

#include "util/telemetry.hpp"

namespace wavepipe::batch {

struct BatchStats {
  // ---- variant grid ---------------------------------------------------------
  std::uint64_t variants_total = 0;   ///< expanded grid size (steps x mc)
  std::uint64_t variants_ok = 0;      ///< completed to the horizon
  std::uint64_t variants_failed = 0;  ///< parse/elaborate/solve failures
  std::uint64_t step_axes = 0;        ///< .step cards expanded
  std::uint64_t mc_samples = 0;       ///< .mc run count (0 when absent)

  // ---- shared symbolic artifacts --------------------------------------------
  std::uint64_t ordering_hits = 0;    ///< OrderingCache hits over the batch
  std::uint64_t ordering_misses = 0;  ///< orderings actually computed
  std::uint64_t artifacts_shared = 0; ///< 1 when variants reused one bundle
  double artifacts_build_seconds = 0.0;  ///< one-time prototype bundle cost

  // ---- aggregate work -------------------------------------------------------
  std::uint64_t steps_accepted = 0;      ///< transient steps over ok variants
  std::uint64_t newton_iterations = 0;   ///< Newton iterations over ok variants
  std::uint64_t dc_points = 0;           ///< .dc sweep points solved
  std::uint64_t ac_points = 0;           ///< .ac frequencies solved
  double wall_seconds = 0.0;             ///< whole-batch wall clock

  /// Registers every field under the `batch.` prefix, in schema order.
  void ExportCounters(util::telemetry::CounterRegistry& registry) const {
    registry.Count("batch.variants_total", variants_total);
    registry.Count("batch.variants_ok", variants_ok);
    registry.Count("batch.variants_failed", variants_failed);
    registry.Count("batch.step_axes", step_axes);
    registry.Count("batch.mc_samples", mc_samples);
    registry.Count("batch.ordering_hits", ordering_hits);
    registry.Count("batch.ordering_misses", ordering_misses);
    registry.Count("batch.artifacts_shared", artifacts_shared);
    registry.Value("batch.artifacts_build_seconds", artifacts_build_seconds);
    registry.Count("batch.steps_accepted", steps_accepted);
    registry.Count("batch.newton_iterations", newton_iterations);
    registry.Count("batch.dc_points", dc_points);
    registry.Count("batch.ac_points", ac_points);
    registry.Value("batch.wall_seconds", wall_seconds);
  }
};

}  // namespace wavepipe::batch

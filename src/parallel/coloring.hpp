// Conflict-free parallel matrix assembly via device graph coloring.
//
// Two devices CONFLICT when their stamp footprints (Jacobian value slots +
// RHS rows, see Device::StampFootprint) intersect.  Coloring the conflict
// graph partitions the device list into classes whose members write disjoint
// memory, so one color can be stamped by any number of threads straight into
// the shared matrix — no private Jacobian copies, no reduction sweep, no
// locks.  A full assembly pass is then `num_colors` parallel phases
// separated by barriers.
//
// This is the standard fix for the fine-grained baseline's reduction tax
// (cf. EEspice in PAPERS.md); it also drops into every pipelined WavePipe
// solve through the engine::DeviceAssembler hook.
//
// Two coloring strategies:
//
//  * kLargestDegreeFirst — Welsh–Powell greedy, fewest colors (fewest
//    barriers).  Per-slot accumulation order follows color order, so results
//    deviate from the serial device loop only at rounding level — but they
//    are DETERMINISTIC: independent of thread count and scheduling, unlike
//    the reduction path whose bits change with the chunk partition.
//
//  * kOrderPreserving — layered coloring: each device's color is one more
//    than the highest color among earlier conflicting devices.  Per-slot
//    accumulation order and association then exactly match the serial
//    device loop, making colored assembly BIT-IDENTICAL to
//    engine::EvalDevices.  The price is more colors (a conflict chain of
//    length L forces L layers), so this mode is for verification and for
//    reproducibility-critical runs, not peak throughput.
//
// Degenerate graphs (a dense supply node turns its neighbors into one big
// clique) make coloring useless; CompareAssemblyCosts() is the deterministic
// structure-only cost model that decides colored vs reduction, and
// MakeAssembler(kAuto, ...) applies it.
//
// The reduction fallback stamps contiguous device chunks into private
// Jacobian/RHS copies, and the same footprints tell it, once, which chunk
// writes each slot and row.  A slot only one chunk writes is published (and
// re-zeroed) by that chunk inside its own share; after the join the caller
// sums, in chunk order, only the slots several chunks write — on a supply
// clique a handful — and zeroes the ones no device writes.  No pass sweeps
// a whole copy, and the bits equal the full k-copy merge it replaced.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "engine/circuit.hpp"
#include "engine/mna.hpp"
#include "engine/newton.hpp"

namespace wavepipe::util {
class ThreadPool;
}

namespace wavepipe::parallel {

enum class ColorStrategy {
  kLargestDegreeFirst,
  kOrderPreserving,
};

struct ColoringOptions {
  ColorStrategy strategy = ColorStrategy::kLargestDegreeFirst;
};

/// A device's resolved write set, with ground writes already dropped.
/// `resources` is the merged id space the conflict graph is built over:
/// Jacobian slot s -> s, RHS row r -> nnz + r; sorted, deduplicated.
struct StampFootprintSet {
  std::vector<int> jacobian_slots;
  std::vector<int> rhs_rows;
  std::vector<int> resources;
};

/// Queries one device (valid after MnaStructure resolved the pattern).
StampFootprintSet FootprintOf(const devices::Device& device,
                              const engine::MnaStructure& structure);

/// The conflict-free stamping schedule: device indices grouped by color,
/// ascending inside each group, colors executed in ascending order.
class ColorSchedule {
 public:
  int num_colors() const { return static_cast<int>(color_begin_.size()) - 1; }
  std::span<const int> ColorDevices(int color) const {
    return std::span<const int>(device_order_)
        .subspan(static_cast<std::size_t>(color_begin_[color]),
                 static_cast<std::size_t>(color_begin_[color + 1] - color_begin_[color]));
  }
  int color_of(std::size_t device) const { return color_of_[device]; }
  /// All devices sorted by (color, index) — the single-threaded stamp order.
  std::span<const int> device_order() const { return device_order_; }
  std::size_t num_devices() const { return color_of_.size(); }
  std::size_t conflict_edges() const { return conflict_edges_; }
  int max_degree() const { return max_degree_; }
  ColorStrategy strategy() const { return strategy_; }
  /// Largest color class (the parallelism available in the widest phase).
  std::size_t widest_color() const;

 private:
  friend ColorSchedule BuildColorSchedule(const engine::Circuit&,
                                          const engine::MnaStructure&, ColoringOptions);
  std::vector<int> color_of_;      // by device index
  std::vector<int> device_order_;  // devices sorted by (color, index)
  std::vector<int> color_begin_;   // size num_colors + 1
  std::size_t conflict_edges_ = 0;
  int max_degree_ = 0;
  ColorStrategy strategy_ = ColorStrategy::kLargestDegreeFirst;
};

/// Builds the device-conflict graph from every device's footprint and
/// colors it greedily.  Deterministic: depends only on circuit structure.
ColorSchedule BuildColorSchedule(const engine::Circuit& circuit,
                                 const engine::MnaStructure& structure,
                                 ColoringOptions options = {});

/// Deterministic structure-only cost model, in "memory write" units per
/// assembly pass.  Used by MakeAssembler(kAuto) to decide when the
/// chromatic number is degenerate (dense supply node -> one color per
/// device -> barrier cost swamps the saved reduction).  Its reduction term
/// still charges the full k-copy zero and merge that the reduction
/// assembler no longer pays, so it overstates reduction; it is kept as is
/// because kAuto's choice, and so the fine-grained output bits, follow
/// from it.
struct AssemblyCostEstimate {
  double colored = 0.0;
  double reduction = 0.0;
  bool prefer_colored = false;
};
AssemblyCostEstimate CompareAssemblyCosts(const ColorSchedule& schedule,
                                          const engine::MnaStructure& structure,
                                          int threads);

enum class AssemblyMode {
  kAuto,       ///< cost model picks colored or reduction
  kReduction,  ///< force private-copy chunked reduction: owned slots published
               ///< per chunk, only shared slots summed after the join
  kColored,    ///< force conflict-free colored stamping
};

/// Creates the assembler for the requested mode.  The returned object stamps
/// on `shared_pool` when one is given (so assembly and level-scheduled LU
/// refactorization share a single set of workers), otherwise it owns its own
/// stamping thread pool of threads - 1 workers (when threads > 1).  Either
/// way the calling thread stamps one chunk of every pass itself, and the
/// chunking reads max(threads, workers + 1).  It may be attached to any
/// number of SolveContexts via SolveContext::assembler.  Colored assemblers
/// are safe to use from several contexts concurrently; the reduction
/// assembler owns private accumulation buffers and must only drive one
/// context at a time.
std::unique_ptr<engine::DeviceAssembler> MakeAssembler(
    AssemblyMode mode, const engine::Circuit& circuit,
    const engine::MnaStructure& structure, int threads, ColoringOptions options = {},
    util::ThreadPool* shared_pool = nullptr);

/// Virtual-time model of one assembly pass at `threads` workers, fed by the
/// measured 1-thread phase seconds of the same strategy:
///   serial:     zero + stamp                      (nothing scales)
///   reduction:  zero + stamp/k + merge*k          (merge sweeps k buffers)
///   colored:    (zero + stamp)/k + merge          (barriers don't shrink)
/// The reduction line dates from the full k-copy merge.  Its one-thread
/// merge is now the copy-out of every stamped slot, which k chunks split
/// between them, plus a sum over the few shared slots after the join, so
/// merge*k overstates it; the formula stays because the pinned model tests
/// and BENCH_assembly.json's guards are written against it.  The assembly
/// bench reports it as a modeled diagnostic next to the measured one-thread
/// phases; perfbench/ measures wall clock end to end.
double ModelAssemblySeconds(const engine::AssemblyStats& measured, int threads);

}  // namespace wavepipe::parallel

#include "parallel/coloring.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <numeric>

#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace wavepipe::parallel {
namespace {

/// Below this many devices a color phase is stamped inline by the calling
/// thread: a fork/join barrier costs more than evaluating a handful of
/// devices.  Chosen conservatively; affects speed only, never results.
constexpr std::size_t kMinDevicesPerChunk = 8;

/// One fork/join barrier expressed in memory-write units for the structure-
/// only cost model.  The figure was low for the futures-based barrier:
/// fine-grained grid_lu spent 33 ms of merge (barrier) time on 378 passes x
/// 5 colors, about 17 us per barrier, against a couple of nanoseconds per
/// write; the gang barrier costs ~1.5 us.  It is kept because kAuto's choice
/// between colored and reduction assembly, and so the fine-grained output
/// bits, follow from it.
constexpr double kBarrierWriteUnits = 512.0;

/// Seconds `body` takes on the clock its path can afford.  Without a pool
/// assembly reads thread-CPU time, which is what bench_assembly measures at
/// one thread and projects from.  Pooled shares read the monotonic clock: a
/// thread-CPU read is a syscall (390-430 ns against 44-47 ns on the 4-vCPU
/// host), and two per share cost about half of a ~1.5 us fork-join.
template <typename Body>
double Timed(bool pooled, Body&& body) {
  if (pooled) {
    const util::WallTimer timer;
    body();
    return timer.Seconds();
  }
  const util::ThreadCpuTimer timer;
  body();
  return timer.Seconds();
}

devices::EvalContext MakeEval(engine::SolveContext& ctx, const engine::NewtonInputs& inputs,
                              bool limit_valid, bool first_iteration,
                              std::span<double> jacobian, std::span<double> rhs) {
  devices::EvalContext eval;
  eval.time = inputs.time;
  eval.a0 = inputs.a0;
  eval.transient = inputs.transient;
  eval.first_iteration = first_iteration;
  eval.gmin = inputs.gmin;
  eval.source_scale = inputs.source_scale;
  eval.gshunt = inputs.gshunt;
  eval.x = ctx.x;
  eval.jacobian_values = jacobian;
  eval.rhs = rhs;
  // State and limiting slots are disjoint per device (claimed in Bind), so
  // the shared arrays are safe under any device partition.
  eval.state_now = ctx.state_now;
  eval.state_hist = ctx.state_hist;
  eval.limit_prev = ctx.limit_a;
  eval.limit_now = ctx.limit_b;
  eval.limit_valid = limit_valid;
  return eval;
}

}  // namespace

// ---------------------------------------------------------------- footprint

StampFootprintSet FootprintOf(const devices::Device& device,
                              const engine::MnaStructure& structure) {
  StampFootprintSet fp;
  device.StampFootprint(fp.jacobian_slots, fp.rhs_rows);

  auto drop_ground = [](std::vector<int>& v) {
    v.erase(std::remove_if(v.begin(), v.end(), [](int id) { return id < 0; }), v.end());
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  drop_ground(fp.jacobian_slots);
  drop_ground(fp.rhs_rows);

  const int nnz = static_cast<int>(structure.nnz());
  fp.resources = fp.jacobian_slots;
  fp.resources.reserve(fp.jacobian_slots.size() + fp.rhs_rows.size());
  for (int row : fp.rhs_rows) fp.resources.push_back(nnz + row);
  return fp;
}

// ----------------------------------------------------------------- coloring

std::size_t ColorSchedule::widest_color() const {
  std::size_t widest = 0;
  for (int c = 0; c < num_colors(); ++c) {
    widest = std::max(widest, ColorDevices(c).size());
  }
  return widest;
}

ColorSchedule BuildColorSchedule(const engine::Circuit& circuit,
                                 const engine::MnaStructure& structure,
                                 ColoringOptions options) {
  WP_ASSERT(circuit.finalized());
  const auto& devices = circuit.devices();
  const std::size_t num_devices = devices.size();

  // Resource -> touching devices.  Resource ids merge Jacobian slots and RHS
  // rows (see FootprintOf); counting sort keeps this O(writes).
  const std::size_t num_resources =
      structure.nnz() + static_cast<std::size_t>(structure.dimension());
  std::vector<std::vector<int>> touchers(num_resources);
  for (std::size_t d = 0; d < num_devices; ++d) {
    const StampFootprintSet fp = FootprintOf(*devices[d], structure);
    for (int res : fp.resources) {
      touchers[static_cast<std::size_t>(res)].push_back(static_cast<int>(d));
    }
  }

  // Adjacency: all pairs within one resource's toucher list conflict.  A
  // dense node (every device on a supply rail) degenerates into a clique;
  // that's expected — the cost model rejects coloring there.
  std::vector<std::vector<int>> adj(num_devices);
  for (const auto& group : touchers) {
    for (std::size_t i = 0; i + 1 < group.size(); ++i) {
      for (std::size_t j = i + 1; j < group.size(); ++j) {
        adj[static_cast<std::size_t>(group[i])].push_back(group[j]);
        adj[static_cast<std::size_t>(group[j])].push_back(group[i]);
      }
    }
  }
  ColorSchedule schedule;
  schedule.strategy_ = options.strategy;
  schedule.color_of_.assign(num_devices, -1);
  for (auto& neighbors : adj) {
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()), neighbors.end());
    schedule.max_degree_ = std::max(schedule.max_degree_, static_cast<int>(neighbors.size()));
    schedule.conflict_edges_ += neighbors.size();
  }
  schedule.conflict_edges_ /= 2;

  int num_colors = 0;
  if (options.strategy == ColorStrategy::kLargestDegreeFirst) {
    // Welsh–Powell greedy: color in (degree desc, index asc) order with the
    // smallest color absent from the already-colored neighborhood.
    std::vector<int> order(num_devices);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&adj](int a, int b) {
      return adj[static_cast<std::size_t>(a)].size() >
             adj[static_cast<std::size_t>(b)].size();
    });
    std::vector<int> forbidden(num_devices, -1);  // color -> stamp of last use
    for (int v : order) {
      for (int neighbor : adj[static_cast<std::size_t>(v)]) {
        const int c = schedule.color_of_[static_cast<std::size_t>(neighbor)];
        if (c >= 0) forbidden[static_cast<std::size_t>(c)] = v;
      }
      int color = 0;
      while (forbidden[static_cast<std::size_t>(color)] == v) ++color;
      schedule.color_of_[static_cast<std::size_t>(v)] = color;
      num_colors = std::max(num_colors, color + 1);
    }
  } else {
    // Order-preserving layering: a device lands one layer above every
    // earlier device it conflicts with.  Colors executed in ascending order
    // then replay each shared slot's accumulation in exact device order —
    // the bit-identity invariant the verification tests pin down.
    for (std::size_t d = 0; d < num_devices; ++d) {
      int color = 0;
      for (int neighbor : adj[d]) {
        if (static_cast<std::size_t>(neighbor) < d) {
          color = std::max(color, schedule.color_of_[static_cast<std::size_t>(neighbor)] + 1);
        }
      }
      schedule.color_of_[d] = color;
      num_colors = std::max(num_colors, color + 1);
    }
  }

  schedule.color_begin_.assign(static_cast<std::size_t>(num_colors) + 1, 0);
  for (std::size_t d = 0; d < num_devices; ++d) {
    ++schedule.color_begin_[static_cast<std::size_t>(schedule.color_of_[d]) + 1];
  }
  for (int c = 0; c < num_colors; ++c) {
    schedule.color_begin_[static_cast<std::size_t>(c) + 1] +=
        schedule.color_begin_[static_cast<std::size_t>(c)];
  }
  schedule.device_order_.resize(num_devices);
  std::vector<int> cursor(schedule.color_begin_.begin(), schedule.color_begin_.end() - 1);
  for (std::size_t d = 0; d < num_devices; ++d) {  // ascending index per color
    schedule.device_order_[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(schedule.color_of_[d])]++)] = static_cast<int>(d);
  }
  return schedule;
}

// --------------------------------------------------------------- cost model

AssemblyCostEstimate CompareAssemblyCosts(const ColorSchedule& schedule,
                                          const engine::MnaStructure& structure,
                                          int threads) {
  const double k = static_cast<double>(std::max(1, threads));
  const double sweep =
      static_cast<double>(structure.nnz()) + static_cast<double>(structure.dimension());
  AssemblyCostEstimate est;
  // Critical-path overhead per assembly pass, in write units.  The stamping
  // itself is identical work in both paths and cancels.
  //   reduction: zero k private copies (parallel, ~1 sweep) + serial merge
  //              of k copies.  That was the full k-copy merge; the
  //              reduction assembler now copies out owned slots in parallel
  //              and sums only shared ones, so this overstates it.  It
  //              stays: kAuto's choice, and so the output bits, follow it.
  //   colored:   zero the shared copy (parallel) + one barrier per color.
  est.reduction = (k + 1.0) * sweep;
  est.colored = sweep / k + static_cast<double>(schedule.num_colors()) * kBarrierWriteUnits;
  est.prefer_colored =
      threads > 1 && schedule.num_devices() > 0 && est.colored < est.reduction;
  return est;
}

double ModelAssemblySeconds(const engine::AssemblyStats& measured, int threads) {
  const double k = static_cast<double>(std::max(1, threads));
  if (std::strcmp(measured.strategy, "reduction") == 0) {
    return measured.zero_seconds + measured.stamp_seconds / k + measured.merge_seconds * k;
  }
  if (std::strcmp(measured.strategy, "colored") == 0) {
    return (measured.zero_seconds + measured.stamp_seconds) / k + measured.merge_seconds;
  }
  return measured.zero_seconds + measured.stamp_seconds + measured.merge_seconds;
}

// --------------------------------------------------------------- assemblers

namespace {

/// Shared bookkeeping: thread pool ownership + mutex-guarded stats.  When a
/// shared (externally owned) pool is supplied, stamping runs on it and no
/// private pool is created — this is how assembly and level-scheduled LU
/// refactorization share one set of workers.  `threads_` counts the threads
/// that stamp: the pool's workers plus the calling thread, which runs one
/// chunk of every pass itself.
class AssemblerBase : public engine::DeviceAssembler {
 public:
  AssemblerBase(const engine::Circuit& circuit, const engine::MnaStructure& structure,
                int threads, util::ThreadPool* shared_pool)
      : circuit_(circuit), structure_(structure), threads_(std::max(1, threads)) {
    if (shared_pool != nullptr) {
      pool_ = shared_pool;
      threads_ = std::max(threads_, static_cast<int>(util::ThreadPool::Participants(pool_)));
    } else {
      owned_pool_ = util::ThreadPool::ForThreads(threads_);
      pool_ = owned_pool_.get();
    }
  }

  engine::AssemblyStats stats() const override {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    return stats_;
  }

 protected:
  /// Books one pass on `ctx`, which the calling thread owns, and on the
  /// assembler's totals, which every context sharing it adds to.
  void AddTimings(engine::SolveContext& ctx, double zero, double stamp, double merge) {
    ctx.merge_seconds += merge;
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.passes += 1;
    stats_.zero_seconds += zero;
    stats_.stamp_seconds += stamp;
    stats_.merge_seconds += merge;
  }

  const engine::Circuit& circuit_;
  const engine::MnaStructure& structure_;
  int threads_;
  std::unique_ptr<util::ThreadPool> owned_pool_;
  util::ThreadPool* pool_ = nullptr;  ///< owned_pool_.get() or the shared pool
  mutable std::mutex stats_mutex_;
  engine::AssemblyStats stats_;
};

/// One output of an assembly pass — the Jacobian values or the RHS — as
/// the reduction assembler's chunks split it: a private full-length copy per
/// chunk, and, fixed at construction from the device footprints, the ids
/// that exactly one chunk writes (OWNED), that several write (SHARED, with
/// their writers in chunk order) and that none writes (UNTOUCHED).  Owned
/// and untouched ids are kept as runs of consecutive ids, copied and
/// cleared as blocks: a node only one chunk's devices touch has its whole
/// CSC column in one run.  Every copy is all zero between passes.
class ChunkedVector {
 public:
  ChunkedVector() = default;

  /// `writes[c]` lists the ids chunk c's devices may write, sorted and
  /// unique; `size` is the length of the output.
  ChunkedVector(const std::vector<std::vector<int>>& writes, std::size_t size)
      : copies_(writes.size(), std::vector<double>(size, 0.0)), owned_(writes.size()) {
    std::vector<int> writers(size, 0);
    for (const auto& ids : writes) {
      for (int id : ids) ++writers[static_cast<std::size_t>(id)];
    }
    for (std::size_t c = 0; c < writes.size(); ++c) {
      for (int id : writes[c]) {
        if (writers[static_cast<std::size_t>(id)] == 1) AppendToRuns(owned_[c], id);
      }
    }
    shared_begin_.push_back(0);
    for (std::size_t id = 0; id < size; ++id) {
      if (writers[id] == 0) {
        AppendToRuns(untouched_, static_cast<int>(id));
      } else if (writers[id] > 1) {
        shared_.push_back(static_cast<int>(id));
        shared_begin_.push_back(shared_begin_.back() + writers[id]);
      }
    }
    // Each shared id's writers, filled in chunk order: next[id] is its next
    // free position in shared_writers_.
    std::vector<int> next(size, 0);
    for (std::size_t s = 0; s < shared_.size(); ++s) {
      next[static_cast<std::size_t>(shared_[s])] = shared_begin_[s];
    }
    shared_writers_.resize(static_cast<std::size_t>(shared_begin_.back()));
    for (std::size_t c = 0; c < writes.size(); ++c) {
      for (int id : writes[c]) {
        const auto i = static_cast<std::size_t>(id);
        if (writers[i] > 1) {
          shared_writers_[static_cast<std::size_t>(next[i]++)] = static_cast<int>(c);
        }
      }
    }
  }

  std::span<double> copy(std::size_t chunk) { return copies_[chunk]; }
  bool has_shared() const { return !shared_.empty(); }

  /// Copies the ids only `chunk` writes into `out` and zeroes them in its
  /// copy.  Chunks own disjoint ids, so every chunk may publish at once.
  void PublishOwned(std::size_t chunk, std::span<double> out) {
    const auto copy = copies_[chunk].begin();
    for (const Run& run : owned_[chunk]) {
      std::copy(copy + run.begin, copy + run.end, out.begin() + run.begin);
      std::fill(copy + run.begin, copy + run.end, 0.0);
    }
  }

  /// Sets each shared id of `out` to 0.0 plus its writers' values in chunk
  /// order, zeroing them in their copies.
  void SumShared(std::span<double> out) {
    for (std::size_t s = 0; s < shared_.size(); ++s) {
      const auto i = static_cast<std::size_t>(shared_[s]);
      double sum = 0.0;
      for (int w = shared_begin_[s]; w < shared_begin_[s + 1]; ++w) {
        const auto writer = static_cast<std::size_t>(shared_writers_[static_cast<std::size_t>(w)]);
        double& value = copies_[writer][i];
        sum += value;
        value = 0.0;
      }
      out[i] = sum;
    }
  }

  void ZeroUntouched(std::span<double> out) const {
    for (const Run& run : untouched_) {
      std::fill(out.begin() + run.begin, out.begin() + run.end, 0.0);
    }
  }

  /// Zeroes every copy whole: after a pass that threw, a copy may hold
  /// stamps anywhere in its chunk's footprint.
  void ClearCopies() {
    for (auto& copy : copies_) std::fill(copy.begin(), copy.end(), 0.0);
  }

 private:
  /// Ids begin .. end - 1.
  struct Run {
    int begin;
    int end;
  };
  /// Appends `id`, larger than every id already in `runs`.
  static void AppendToRuns(std::vector<Run>& runs, int id) {
    if (!runs.empty() && runs.back().end == id) {
      ++runs.back().end;
    } else {
      runs.push_back({id, id + 1});
    }
  }

  std::vector<std::vector<double>> copies_;  ///< per chunk
  std::vector<std::vector<Run>> owned_;      ///< per chunk, ascending
  std::vector<int> shared_;                  ///< ascending
  /// shared_[s] is written by chunks shared_writers_[shared_begin_[s] ..
  /// shared_begin_[s + 1]), ascending.
  std::vector<int> shared_begin_;
  std::vector<int> shared_writers_;
  std::vector<Run> untouched_;
};

/// The fine-grained reduction strategy, behind the DeviceAssembler
/// interface: contiguous device chunks stamp into private Jacobian/RHS
/// copies.  Each chunk then publishes the slots and rows only it writes into
/// ctx.matrix/ctx.rhs itself; after the join the calling thread sums the few
/// that several chunks write and zeroes the ones no device writes.  No pass
/// sweeps a whole copy, yet every output bit equals the full k-copy merge
/// (0.0 + copy_0 + ... + copy_{k-1}): a chunk's stamps accumulate from +0.0,
/// so they are never -0.0 and adding another chunk's +0.0 changes nothing,
/// and shared slots keep chunk order.  That relies on every device writing
/// only inside its StampFootprint — the contract colored assembly already
/// relies on.  Owns the private copies, so it can only drive one
/// SolveContext at a time.
class ReductionAssembler final : public AssemblerBase {
 public:
  ReductionAssembler(const engine::Circuit& circuit, const engine::MnaStructure& structure,
                     int threads, util::ThreadPool* shared_pool)
      : AssemblerBase(circuit, structure, threads, shared_pool) {
    stats_.strategy = "reduction";
    const auto& devices = circuit.devices();
    const std::size_t num_devices = devices.size();
    const std::size_t per_chunk =
        (num_devices + static_cast<std::size_t>(threads_) - 1) /
        static_cast<std::size_t>(std::max(1, threads_));
    std::vector<std::vector<int>> slots, rows;  // what each chunk may write
    for (std::size_t begin = 0; begin < num_devices; begin += per_chunk) {
      chunks_.push_back({begin, std::min(begin + per_chunk, num_devices)});
      std::vector<int>& chunk_slots = slots.emplace_back();
      std::vector<int>& chunk_rows = rows.emplace_back();
      for (std::size_t d = chunks_.back().begin; d < chunks_.back().end; ++d) {
        const StampFootprintSet fp = FootprintOf(*devices[d], structure);
        chunk_slots.insert(chunk_slots.end(), fp.jacobian_slots.begin(),
                           fp.jacobian_slots.end());
        chunk_rows.insert(chunk_rows.end(), fp.rhs_rows.begin(), fp.rhs_rows.end());
      }
      for (std::vector<int>* ids : {&chunk_slots, &chunk_rows}) {
        std::sort(ids->begin(), ids->end());
        ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
      }
    }
    jacobian_ = ChunkedVector(slots, structure.nnz());
    rhs_ = ChunkedVector(rows, static_cast<std::size_t>(structure.dimension()));
  }

  void Assemble(engine::SolveContext& ctx, const engine::NewtonInputs& inputs,
                bool limit_valid, bool first_iteration) override {
    const bool pooled = pool_ != nullptr;
    const std::span<double> values = ctx.matrix.mutable_values();
    const std::span<double> rhs = ctx.rhs;
    auto run_chunk = [&](std::size_t c) {
      Chunk& chunk = chunks_[c];
      chunk.stamp_seconds = Timed(pooled, [&] {
        devices::EvalContext eval = MakeEval(ctx, inputs, limit_valid, first_iteration,
                                             jacobian_.copy(c), rhs_.copy(c));
        const auto& devices = circuit_.devices();
        if (ctx.bypass.active()) {
          // Replay works against private copies too: a device lives in one
          // chunk, whose copy is zero when the pass starts, so the captured
          // deltas are exactly what the device adds to the merged sum.
          for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
            ctx.bypass.Process(i, *devices[i], eval);
          }
        } else {
          for (std::size_t i = chunk.begin; i < chunk.end; ++i) devices[i]->Eval(eval);
        }
      });
      chunk.merge_seconds = Timed(pooled, [&] {
        jacobian_.PublishOwned(c, values);
        rhs_.PublishOwned(c, rhs);
      });
    };
    try {
      util::ThreadPool::ForkJoin(pool_, chunks_.size(), run_chunk);
    } catch (...) {
      // A device threw (a singular ReducedSubnet) or the pool injected a
      // fault.  Whatever the chunks stamped belongs to no pass, and the next
      // pass would publish it.
      jacobian_.ClearCopies();
      rhs_.ClearCopies();
      throw;
    }
    double stamp = 0.0, merge = 0.0;
    for (const Chunk& chunk : chunks_) {
      stamp += chunk.stamp_seconds;
      merge += chunk.merge_seconds;
    }
    const double zero = Timed(pooled, [&] {
      jacobian_.ZeroUntouched(values);
      rhs_.ZeroUntouched(rhs);
    });
    // One chunk shares nothing; its pass keeps to three timed phases.
    if (jacobian_.has_shared() || rhs_.has_shared()) {
      merge += Timed(pooled, [&] {
        jacobian_.SumShared(values);
        rhs_.SumShared(rhs);
      });
    }
    AddTimings(ctx, zero, stamp, merge);
  }

 private:
  /// A contiguous device range, and its share of the pass's timings.
  struct Chunk {
    std::size_t begin = 0;
    std::size_t end = 0;
    double stamp_seconds = 0.0;
    double merge_seconds = 0.0;  ///< publishing its owned slots and rows
  };
  std::vector<Chunk> chunks_;
  ChunkedVector jacobian_;
  ChunkedVector rhs_;
};

/// Conflict-free colored stamping: colors execute as sequential barriers,
/// devices inside a color stamp the shared matrix/RHS directly from any
/// number of threads.  Stateless with respect to the context, so WavePipe
/// workers share one instance across their per-slot contexts.
class ColoredAssembler final : public AssemblerBase {
 public:
  ColoredAssembler(const engine::Circuit& circuit, const engine::MnaStructure& structure,
                   ColorSchedule schedule, int threads, util::ThreadPool* shared_pool)
      : AssemblerBase(circuit, structure, threads, shared_pool),
        schedule_(std::move(schedule)) {
    stats_.strategy = "colored";
    stats_.colors = schedule_.num_colors();
    stats_.conflict_edges = schedule_.conflict_edges();
    stats_.max_degree = schedule_.max_degree();
  }

  const ColorSchedule& schedule() const { return schedule_; }

  void Assemble(engine::SolveContext& ctx, const engine::NewtonInputs& inputs,
                bool limit_valid, bool first_iteration) override {
    const bool pooled = pool_ != nullptr;
    auto values = ctx.matrix.mutable_values();
    const double zero = Timed(pooled, [&] {
      std::fill(values.begin(), values.end(), 0.0);
      std::fill(ctx.rhs.begin(), ctx.rhs.end(), 0.0);
    });

    const auto& devices = circuit_.devices();
    // Latency bypass: replay cached stamps for quiescent devices.  Safe under
    // the color partition — a replay writes exactly the device's footprint
    // slots, the same set the coloring already keeps conflict-free.  Process()
    // keeps per-device scratch, so concurrent same-color chunks never share
    // mutable bypass state either.
    const bool bypassing = ctx.bypass.active();
    auto stamp = [&](std::span<const int> ids) {
      devices::EvalContext eval =
          MakeEval(ctx, inputs, limit_valid, first_iteration, values, ctx.rhs);
      if (bypassing) {
        for (int id : ids) {
          const auto d = static_cast<std::size_t>(id);
          ctx.bypass.Process(d, *devices[d], eval);
        }
      } else {
        for (int id : ids) devices[static_cast<std::size_t>(id)]->Eval(eval);
      }
    };

    if (!pooled) {
      // Single-threaded: colors in order on the calling thread, one timer
      // over the whole loop (a per-color thread-CPU read is a syscall and
      // would dominate small color groups — and distort the 1-thread
      // measurement the virtual-time bench projects from).
      const double seconds = Timed(pooled, [&] { stamp(schedule_.device_order()); });
      AddTimings(ctx, zero, seconds, 0.0);
      return;
    }

    // Each part's seconds of the color in flight.  The calling thread owns
    // the storage (contexts share this assembler concurrently), and it grows
    // once, so a pass allocates nothing.
    thread_local std::vector<double> part_seconds;
    if (part_seconds.size() < static_cast<std::size_t>(threads_)) {
      part_seconds.resize(static_cast<std::size_t>(threads_));
    }
    double stamp_seconds = 0.0, barrier = 0.0;
    for (int color = 0; color < schedule_.num_colors(); ++color) {
      const std::span<const int> group = schedule_.ColorDevices(color);
      const std::size_t chunk_count = std::clamp<std::size_t>(
          group.size() / kMinDevicesPerChunk, 1, static_cast<std::size_t>(threads_));
      if (chunk_count <= 1) {
        stamp_seconds += Timed(pooled, [&] { stamp(group); });
        continue;
      }
      // Fork/join barrier: same-color devices write disjoint slots, so the
      // partition is free to be anything; contiguous keeps it cache-friendly.
      const util::WallTimer barrier_timer;
      const std::size_t per_chunk = (group.size() + chunk_count - 1) / chunk_count;
      const std::size_t parts = (group.size() + per_chunk - 1) / per_chunk;
      std::span<double> seconds(part_seconds.data(), parts);
      util::ThreadPool::ForkJoin(pool_, parts, [&](std::size_t part) {
        const std::size_t begin = part * per_chunk;
        seconds[part] = Timed(pooled, [&] {
          stamp(group.subspan(begin, std::min(per_chunk, group.size() - begin)));
        });
      });
      double color_seconds = 0.0;
      for (const double part : seconds) color_seconds += part;
      stamp_seconds += color_seconds;
      barrier += std::max(0.0, barrier_timer.Seconds() - color_seconds);
    }
    AddTimings(ctx, zero, stamp_seconds, barrier);
  }

 private:
  ColorSchedule schedule_;
};

}  // namespace

std::unique_ptr<engine::DeviceAssembler> MakeAssembler(
    AssemblyMode mode, const engine::Circuit& circuit,
    const engine::MnaStructure& structure, int threads, ColoringOptions options,
    util::ThreadPool* shared_pool) {
  if (mode == AssemblyMode::kReduction) {
    return std::make_unique<ReductionAssembler>(circuit, structure, threads, shared_pool);
  }
  if (mode == AssemblyMode::kColored) {
    return std::make_unique<ColoredAssembler>(
        circuit, structure, BuildColorSchedule(circuit, structure, options), threads,
        shared_pool);
  }
  // kAuto.  One thread: the 1-chunk reduction path IS the serial loop (same
  // bits, no barriers), so coloring can only add overhead.
  const int effective_threads =
      std::max(threads, static_cast<int>(util::ThreadPool::Participants(shared_pool)));
  if (effective_threads <= 1) {
    return std::make_unique<ReductionAssembler>(circuit, structure, threads, nullptr);
  }
  ColorSchedule schedule = BuildColorSchedule(circuit, structure, options);
  const AssemblyCostEstimate est =
      CompareAssemblyCosts(schedule, structure, effective_threads);
  if (est.prefer_colored) {
    return std::make_unique<ColoredAssembler>(circuit, structure, std::move(schedule),
                                              threads, shared_pool);
  }
  return std::make_unique<ReductionAssembler>(circuit, structure, threads, shared_pool);
}

}  // namespace wavepipe::parallel

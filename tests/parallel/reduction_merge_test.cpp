// The reduction assembler publishes each Jacobian slot and RHS row from the
// one chunk that writes it, sums only the slots several chunks write, and
// zeroes the ones no device writes.  These tests hold it to the full k-copy
// merge it replaced — kept here as FullCopyReductionAssembler — bit for bit
// over consecutive passes (so a copy that is not left zero shows up on the
// next pass), across circuits, thread counts, integrator and continuation
// inputs, latency bypass, and the pass after one that threw.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "circuits/generators.hpp"
#include "engine/newton.hpp"
#include "engine/options.hpp"
#include "parallel/coloring.hpp"
#include "reduce/reduce.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace wavepipe::parallel {
namespace {

/// The merge as it was: every chunk zeroes and stamps a full-length private
/// copy, then the output is zeroed and every copy added to it, chunk by
/// chunk.  Chunks run one after another (which thread stamps a chunk never
/// changed its bits) and are cut exactly as ReductionAssembler cuts them.
class FullCopyReductionAssembler final : public engine::DeviceAssembler {
 public:
  FullCopyReductionAssembler(const engine::Circuit& circuit,
                             const engine::MnaStructure& structure, int threads)
      : circuit_(circuit) {
    const std::size_t num_devices = circuit.devices().size();
    const auto k = static_cast<std::size_t>(threads);
    const std::size_t per_chunk = (num_devices + k - 1) / k;
    for (std::size_t begin = 0; begin < num_devices; begin += per_chunk) {
      chunks_.push_back({begin, std::min(begin + per_chunk, num_devices),
                         std::vector<double>(structure.nnz()),
                         std::vector<double>(static_cast<std::size_t>(structure.dimension()))});
    }
  }

  void Assemble(engine::SolveContext& ctx, const engine::NewtonInputs& inputs,
                bool limit_valid, bool first_iteration) override {
    const auto& devices = circuit_.devices();
    for (Chunk& chunk : chunks_) {
      std::fill(chunk.jacobian.begin(), chunk.jacobian.end(), 0.0);
      std::fill(chunk.rhs.begin(), chunk.rhs.end(), 0.0);
      devices::EvalContext eval;
      eval.time = inputs.time;
      eval.a0 = inputs.a0;
      eval.transient = inputs.transient;
      eval.first_iteration = first_iteration;
      eval.gmin = inputs.gmin;
      eval.source_scale = inputs.source_scale;
      eval.gshunt = inputs.gshunt;
      eval.x = ctx.x;
      eval.jacobian_values = chunk.jacobian;
      eval.rhs = chunk.rhs;
      eval.state_now = ctx.state_now;
      eval.state_hist = ctx.state_hist;
      eval.limit_prev = ctx.limit_a;
      eval.limit_now = ctx.limit_b;
      eval.limit_valid = limit_valid;
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
        if (ctx.bypass.active()) {
          ctx.bypass.Process(i, *devices[i], eval);
        } else {
          devices[i]->Eval(eval);
        }
      }
    }
    auto values = ctx.matrix.mutable_values();
    std::fill(values.begin(), values.end(), 0.0);
    std::fill(ctx.rhs.begin(), ctx.rhs.end(), 0.0);
    for (const Chunk& chunk : chunks_) {
      for (std::size_t k = 0; k < values.size(); ++k) values[k] += chunk.jacobian[k];
      for (std::size_t i = 0; i < ctx.rhs.size(); ++i) ctx.rhs[i] += chunk.rhs[i];
    }
  }

  engine::AssemblyStats stats() const override { return {}; }

 private:
  struct Chunk {
    std::size_t begin;
    std::size_t end;
    std::vector<double> jacobian;
    std::vector<double> rhs;
  };
  const engine::Circuit& circuit_;
  std::vector<Chunk> chunks_;
};

struct NamedCircuit {
  std::string name;
  std::unique_ptr<engine::Circuit> circuit;
};

std::vector<NamedCircuit> Circuits() {
  std::vector<NamedCircuit> all;
  all.push_back({"invchain", circuits::MakeInverterChain(7).circuit});
  all.push_back({"parladder", circuits::MakeParasiticLadder(3, 6).circuit});
  auto reduced = reduce::Reduce(circuits::MakeParasiticLadder(3, 6).circuit);
  EXPECT_TRUE(reduced.reduced);
  all.push_back({"parladder_reduced", std::move(reduced.circuit)});
  all.push_back({"rcmesh", circuits::MakeRcMesh(5, 6).circuit});
  all.push_back({"rectifier", circuits::MakeDiodeRectifier(4).circuit});
  return all;
}

/// One pass's inputs: the iterate and history are drawn from `phase`.
struct Pass {
  double phase = 0.0;
  engine::NewtonInputs inputs;
  bool limit_valid = true;
};

std::vector<Pass> PassSequence() {
  std::vector<Pass> passes;
  auto add = [&passes](double phase, bool transient, double a0, double gmin, double gshunt,
                       bool limit_valid) {
    Pass p;
    p.phase = phase;
    p.inputs.time = 1e-9 * (1.0 + phase);
    p.inputs.transient = transient;
    p.inputs.a0 = a0;
    p.inputs.gmin = gmin;
    p.inputs.gshunt = gshunt;
    p.limit_valid = limit_valid;
    passes.push_back(p);
  };
  add(0.2, false, 0.0, 1e-12, 0.0, false);   // DC, first iteration
  add(0.9, false, 0.0, 1e-9, 1e-3, true);    // DC gmin stepping
  add(1.7, true, 2e9, 1e-12, 0.0, false);    // transient, first iteration
  add(1.7, true, 2e9, 1e-12, 0.0, true);     // same point again: bypass replays
  add(2.4, true, 2e9, 1e-12, 0.0, true);     // limiting from the previous iterate
  add(3.1, true, 1e9, 1e-12, 1e-6, true);    // new step size, gshunt rung
  add(3.1, true, 1e9, 1e-12, 1e-6, true);
  return passes;
}

void Load(engine::SolveContext& ctx, double phase) {
  for (std::size_t i = 0; i < ctx.x.size(); ++i) {
    ctx.x[i] = 1.3 * std::sin(0.37 * static_cast<double>(i) + phase);
  }
  for (std::size_t s = 0; s < ctx.state_hist.size(); ++s) {
    ctx.state_hist[s] = 1e-6 * std::cos(0.51 * static_cast<double>(s) + phase);
  }
}

/// memcmp equality of everything a pass writes.
void ExpectSameBits(const engine::SolveContext& want, const engine::SolveContext& got,
                    const std::string& where) {
  const auto a = want.matrix.values();
  const auto b = got.matrix.values();
  ASSERT_EQ(a.size(), b.size()) << where;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << where << ": Jacobian values differ";
  ASSERT_EQ(want.rhs.size(), got.rhs.size()) << where;
  EXPECT_EQ(std::memcmp(want.rhs.data(), got.rhs.data(), want.rhs.size() * sizeof(double)), 0)
      << where << ": RHS differs";
  EXPECT_EQ(want.state_now, got.state_now) << where;
}

struct Pair {
  Pair(const engine::Circuit& circuit, const engine::MnaStructure& mna, int threads,
       bool bypass)
      : reference(circuit, mna, threads),
        assembler(MakeAssembler(AssemblyMode::kReduction, circuit, mna, threads)),
        want(circuit, mna),
        got(circuit, mna) {
    want.assembler = &reference;
    got.assembler = assembler.get();
    engine::SimOptions options;
    options.device_bypass = bypass;
    want.ConfigureAcceleration(options);
    got.ConfigureAcceleration(options);
  }

  void Run(const Pass& pass) {
    for (engine::SolveContext* ctx : {&want, &got}) {
      Load(*ctx, pass.phase);
      engine::EvalDevices(*ctx, pass.inputs, pass.limit_valid,
                          /*first_iteration=*/!pass.limit_valid);
    }
  }

  FullCopyReductionAssembler reference;
  std::unique_ptr<engine::DeviceAssembler> assembler;
  engine::SolveContext want;
  engine::SolveContext got;
};

TEST(ReductionMerge, MatchesFullCopyMergeBitForBit) {
  for (const NamedCircuit& c : Circuits()) {
    const engine::MnaStructure mna(*c.circuit);
    for (int threads = 1; threads <= 4; ++threads) {
      for (const bool bypass : {false, true}) {
        Pair pair(*c.circuit, mna, threads, bypass);
        EXPECT_STREQ(pair.assembler->stats().strategy, "reduction");
        const std::vector<Pass> passes = PassSequence();
        for (std::size_t p = 0; p < passes.size(); ++p) {
          pair.Run(passes[p]);
          ExpectSameBits(pair.want, pair.got,
                         c.name + " threads=" + std::to_string(threads) +
                             " bypass=" + std::to_string(bypass) + " pass=" +
                             std::to_string(p));
        }
        // Bypass replays nonlinear devices only (the RC mesh has none).
        if (bypass && c.circuit->is_nonlinear()) {
          EXPECT_GT(pair.got.bypass.bypassed_evals(), 0u) << c.name;
        }
      }
    }
  }
}

/// Runs a pass on `got` alone that `site` makes throw, then one more pass
/// on both contexts: what the failed pass stamped must not reach it.
template <typename Thrown>
void ExpectCleanPassAfterThrow(const char* site, int min_threads) {
  auto reduced = reduce::Reduce(circuits::MakeParasiticLadder(3, 6).circuit);
  ASSERT_TRUE(reduced.reduced);
  const engine::Circuit& circuit = *reduced.circuit;
  const engine::MnaStructure mna(circuit);
  for (int threads = min_threads; threads <= 4; ++threads) {
    const std::string where = std::string(site) + " threads=" + std::to_string(threads);
    Pair pair(circuit, mna, threads, /*bypass=*/false);
    const std::vector<Pass> passes = PassSequence();
    pair.Run(passes[2]);
    ExpectSameBits(pair.want, pair.got, where + " before");

    // A fresh a0 makes every ReducedSubnet build a new interior factor.
    Pass failing = passes[2];
    failing.inputs.a0 = 3e9 + 1e8 * threads;
    {
      util::fault::ScopedFault fault(site);
      Load(pair.got, failing.phase);
      EXPECT_THROW(engine::EvalDevices(pair.got, failing.inputs, true, false), Thrown)
          << where;
      EXPECT_EQ(fault.fired(), 1u) << where;
    }
    pair.Run(passes[4]);
    ExpectSameBits(pair.want, pair.got, where + " after");
    pair.Run(passes[5]);
    ExpectSameBits(pair.want, pair.got, where + " after+1");
  }
}

TEST(ReductionMerge, PassAfterSingularSubnetMatches) {
  ExpectCleanPassAfterThrow<SingularMatrixError>("reduce.singular", 1);
}

TEST(ReductionMerge, PassAfterPoolFaultMatches) {
  // The pool's fault site exists only where a fork-join has two shares.
  ExpectCleanPassAfterThrow<util::fault::FaultInjectedError>("pool.task_throw", 2);
}

}  // namespace
}  // namespace wavepipe::parallel

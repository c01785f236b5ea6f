// Linear-subnetwork reduction: detection, deterministic rebuild, no-op
// identity, unknown_map / RemapSpec translation, exact back-substitution on
// analytically solvable subnetworks, bundle purity under cache eviction, and
// counter export.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <random>

#include "circuits/generators.hpp"
#include "devices/passive.hpp"
#include "devices/sources.hpp"
#include "engine/mna.hpp"
#include "engine/newton.hpp"
#include "engine/trace.hpp"
#include "engine/transient.hpp"
#include "reduce/reduce.hpp"
#include "reduce/reduced_subnet.hpp"
#include "util/error.hpp"
#include "util/telemetry.hpp"

namespace wavepipe::reduce {
namespace {

using devices::Capacitor;
using devices::CurrentSource;
using devices::DcWaveform;
using devices::Resistor;
using devices::VoltageSource;
using engine::Circuit;

std::vector<const ReducedSubnet*> SubnetsOf(const Circuit& circuit) {
  std::vector<const ReducedSubnet*> subnets;
  for (const auto& device : circuit.devices()) {
    if (const auto* subnet = dynamic_cast<const ReducedSubnet*>(device.get())) {
      subnets.push_back(subnet);
    }
  }
  return subnets;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(ReduceDetectTest, LadderInteriorIsFullyEliminated) {
  auto gen = circuits::MakeRcLadder(10);
  const int nn = gen.circuit->num_nodes();
  const int nb = gen.circuit->num_branches();
  ASSERT_EQ(nn, 11);  // in + n1..n10
  ASSERT_EQ(nb, 1);   // vin branch

  auto result = Reduce(std::move(gen.circuit));
  EXPECT_TRUE(result.reduced);
  EXPECT_EQ(result.stats.subnets, 1u);
  EXPECT_EQ(result.stats.nodes_eliminated, 10u);
  EXPECT_EQ(result.stats.devices_absorbed, 20u);  // 10 R + 10 C
  EXPECT_EQ(result.stats.max_interior, 10u);
  EXPECT_EQ(result.stats.max_ports, 1u);  // only "in" borders the ladder
  // Survivors: "in" plus the source branch.
  EXPECT_EQ(result.circuit->num_nodes(), 1);
  EXPECT_EQ(result.circuit->num_branches(), 1);

  ASSERT_EQ(result.unknown_map.size(), static_cast<std::size_t>(nn + nb));
  EXPECT_EQ(result.unknown_map[0], 0);  // "in" keeps index 0
  for (int u = 1; u < nn; ++u) {
    EXPECT_TRUE(engine::ProbeSet::IsStateProbe(result.unknown_map[u]))
        << "eliminated node " << u << " should map to a state probe";
  }
  // Branch ordinal preserved, offset by the new node count.
  EXPECT_EQ(result.unknown_map[static_cast<std::size_t>(nn)],
            result.circuit->num_nodes() + 0);
}

TEST(ReduceDetectTest, NonlinearAnchorsMakeReductionANoOp) {
  auto gen = circuits::MakeRingOscillator(3);
  Circuit* original = gen.circuit.get();
  const int unknowns = gen.circuit->num_unknowns();

  auto result = Reduce(std::move(gen.circuit));
  EXPECT_FALSE(result.reduced);
  // The ORIGINAL circuit comes back unmoved: bit-identical downstream.
  EXPECT_EQ(result.circuit.get(), original);
  EXPECT_EQ(result.stats.subnets, 0u);
  std::vector<int> identity(static_cast<std::size_t>(unknowns));
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_EQ(result.unknown_map, identity);
}

TEST(ReduceDetectTest, KeepNodesSurviveElimination) {
  auto gen = circuits::MakeRcLadder(5);
  const int keep = gen.circuit->NodeIndex("n3");
  const int keep_list[] = {keep};
  auto result = Reduce(std::move(gen.circuit), keep_list);
  EXPECT_TRUE(result.reduced);
  // n3 is a kept unknown (non-negative mapping); the ladder splits around it.
  EXPECT_GE(result.unknown_map[static_cast<std::size_t>(keep)], 0);
  EXPECT_TRUE(result.circuit->HasNode("n3"));
  EXPECT_EQ(result.stats.subnets, 2u);
  EXPECT_EQ(result.stats.nodes_eliminated, 4u);
}

TEST(ReduceDetectTest, DeterministicAcrossIdenticalInputs) {
  auto a = Reduce(circuits::MakeRcMesh(5, 5).circuit);
  auto b = Reduce(circuits::MakeRcMesh(5, 5).circuit);
  EXPECT_EQ(a.unknown_map, b.unknown_map);
  EXPECT_EQ(a.stats.subnets, b.stats.subnets);
  EXPECT_EQ(a.stats.nodes_eliminated, b.stats.nodes_eliminated);
  EXPECT_EQ(a.circuit->num_unknowns(), b.circuit->num_unknowns());

  // The rebuilt circuits must solve bit-identically: same devices in the same
  // order, same elimination order (fixed by the interior pattern), same stamps.
  auto gen = circuits::MakeRcMesh(5, 5);
  engine::TransientSpec spec = gen.spec;
  RemapSpec(a, spec);
  const engine::MnaStructure mna_a(*a.circuit);
  const engine::MnaStructure mna_b(*b.circuit);
  const auto run_a = engine::RunTransientSerial(*a.circuit, mna_a, spec, {});
  const auto run_b = engine::RunTransientSerial(*b.circuit, mna_b, spec, {});
  ASSERT_EQ(run_a.trace.num_samples(), run_b.trace.num_samples());
  for (std::size_t i = 0; i < run_a.trace.num_samples(); ++i) {
    ASSERT_EQ(run_a.trace.time(i), run_b.trace.time(i));
    for (std::size_t p = 0; p < spec.probes.size(); ++p) {
      ASSERT_EQ(run_a.trace.value(i, p), run_b.trace.value(i, p));
    }
  }
}

TEST(ReduceRemapTest, RemapSpecReroutesInteriorProbesAndCountsThem) {
  auto gen = circuits::MakeRcLadder(6);
  const int in = gen.circuit->NodeIndex("in");
  const int n6 = gen.circuit->NodeIndex("n6");
  auto result = Reduce(std::move(gen.circuit));

  engine::TransientSpec spec = gen.spec;
  spec.probes.unknowns = {in, n6};
  spec.probes.names = {"in", "n6"};
  const std::size_t expansions = RemapSpec(result, spec);
  EXPECT_EQ(expansions, 1u);
  EXPECT_EQ(spec.probes.unknowns[0], result.unknown_map[static_cast<std::size_t>(in)]);
  EXPECT_TRUE(engine::ProbeSet::IsStateProbe(spec.probes.unknowns[1]));
}

// A purely resistive divider: in -R- mid -R- gnd.  The eliminated mid node's
// back-substituted waveform must track v(in)/2 at every sample.  The bound is
// Newton tolerance, not machine epsilon: interior states are recorded during
// the final device evaluation, which runs one Newton iterate behind the
// published solution, and a linear circuit converges on iteration 1 with
// dx ~ prediction error (< reltol) — so no confirming pass refreshes them.
TEST(ReduceBacksubTest, StaticDividerTracksWithinNewtonTolerance) {
  auto circuit = std::make_unique<Circuit>();
  const int in = circuit->AddNode("in");
  const int mid = circuit->AddNode("mid");
  circuit->Emplace<VoltageSource>(
      "vin", in, devices::kGround,
      std::make_unique<devices::PulseWaveform>(0.0, 2.0, 1e-6, 1e-7, 1e-7, 4e-6, 10e-6));
  circuit->Emplace<Resistor>("r1", in, mid, 1e3);
  circuit->Emplace<Resistor>("r2", mid, devices::kGround, 1e3);
  circuit->Finalize();

  auto result = Reduce(std::move(circuit));
  ASSERT_TRUE(result.reduced);
  EXPECT_EQ(result.stats.static_subnets, 1u);

  engine::TransientSpec spec;
  spec.tstop = 8e-6;
  spec.tstep = 1e-7;
  spec.probes.unknowns = {in, mid};
  spec.probes.names = {"in", "mid"};
  RemapSpec(result, spec);

  const engine::MnaStructure mna(*result.circuit);
  const auto run = engine::RunTransientSerial(*result.circuit, mna, spec, {});
  ASSERT_GT(run.trace.num_samples(), 10u);
  for (std::size_t i = 0; i < run.trace.num_samples(); ++i) {
    EXPECT_NEAR(run.trace.value(i, 1), 0.5 * run.trace.value(i, 0), 1e-3);
  }
}

// Absorbed current source: in -R1- mid -R2- gnd with I injected into mid.
// DC: v_mid = (v_in/R1 + I) / (1/R1 + 1/R2).
TEST(ReduceBacksubTest, AbsorbedCurrentSourceKeepsDcSolution) {
  auto circuit = std::make_unique<Circuit>();
  const int in = circuit->AddNode("in");
  const int mid = circuit->AddNode("mid");
  circuit->Emplace<VoltageSource>("vin", in, devices::kGround,
                                  std::make_unique<DcWaveform>(1.0));
  circuit->Emplace<Resistor>("r1", in, mid, 1e3);
  circuit->Emplace<Resistor>("r2", mid, devices::kGround, 2e3);
  circuit->Emplace<CurrentSource>("iload", devices::kGround, mid,
                                  std::make_unique<DcWaveform>(0.5e-3));
  circuit->Finalize();

  auto result = Reduce(std::move(circuit));
  ASSERT_TRUE(result.reduced);
  EXPECT_EQ(result.stats.devices_absorbed, 3u);
  EXPECT_EQ(result.stats.static_subnets, 0u);  // the source makes it dynamic

  engine::TransientSpec spec;
  spec.tstop = 1e-6;
  spec.tstep = 1e-8;
  spec.probes.unknowns = {mid};
  spec.probes.names = {"mid"};
  RemapSpec(result, spec);

  const engine::MnaStructure mna(*result.circuit);
  const auto run = engine::RunTransientSerial(*result.circuit, mna, spec, {});
  const double expected = (1.0 / 1e3 + 0.5e-3) / (1.0 / 1e3 + 1.0 / 2e3);
  ASSERT_GT(run.trace.num_samples(), 0u);
  for (std::size_t i = 0; i < run.trace.num_samples(); ++i) {
    EXPECT_NEAR(run.trace.value(i, 0), expected, 1e-9);
  }
}

// A bundle is a pure function of its (a0', gshunt) key.  More keys than the
// cache holds, evaluated once ascending and once shuffled, hit eviction and
// storage recycling at different keys; every key's stamps and state writes
// must still agree bit for bit, and every build must reuse the subnet's one
// symbolic analysis.
TEST(ReduceBundleTest, BundlesArePureFunctionsOfTheirKey) {
  auto gen = circuits::MakeParasiticLadder(3, 8);
  auto result = Reduce(std::move(gen.circuit));
  ASSERT_TRUE(result.reduced);
  const auto subnets = SubnetsOf(*result.circuit);
  ASSERT_FALSE(subnets.empty());

  const engine::MnaStructure mna(*result.circuit);
  engine::SolveContext ctx(*result.circuit, mna);
  // A fixed iterate and history: only the key varies between evaluations.
  for (std::size_t i = 0; i < ctx.x.size(); ++i) {
    ctx.x[i] = 0.6 * std::sin(0.41 * static_cast<double>(i) + 0.2);
  }
  for (std::size_t i = 0; i < ctx.state_hist.size(); ++i) {
    ctx.state_hist[i] = 1e-6 * std::cos(0.7 * static_cast<double>(i));
  }

  struct Key {
    double a0, gshunt;
  };
  std::vector<Key> keys;
  for (std::size_t k = 0; k < ReducedSubnet::kMaxBundles + 8; ++k) {
    keys.push_back({2e9 * (1.0 + 0.37 * static_cast<double>(k)), 0.0});
  }
  keys.push_back({keys[3].a0, 1e-3});  // a gshunt rung at an a0 also seen bare

  struct Stamp {
    std::vector<double> jacobian, rhs, state;
  };
  auto eval = [&](const Key& key) {
    engine::NewtonInputs inputs;
    inputs.time = 1e-9;
    inputs.a0 = key.a0;
    inputs.transient = true;
    inputs.gshunt = key.gshunt;
    std::fill(ctx.state_now.begin(), ctx.state_now.end(), 0.0);
    engine::EvalDevices(ctx, inputs, /*limit_valid=*/false, /*first_iteration=*/true);
    const auto jacobian = ctx.matrix.values();
    return Stamp{{jacobian.begin(), jacobian.end()}, ctx.rhs, ctx.state_now};
  };

  std::vector<Stamp> ascending;
  for (const Key& key : keys) ascending.push_back(eval(key));

  std::vector<std::size_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), std::mt19937(7));
  for (const std::size_t k : order) {
    const Stamp again = eval(keys[k]);
    EXPECT_TRUE(BitwiseEqual(again.jacobian, ascending[k].jacobian)) << "key " << k;
    EXPECT_TRUE(BitwiseEqual(again.rhs, ascending[k].rhs)) << "key " << k;
    EXPECT_TRUE(BitwiseEqual(again.state, ascending[k].state)) << "key " << k;
  }
  EXPECT_FALSE(BitwiseEqual(ascending[0].jacobian, ascending[1].jacobian))
      << "distinct keys must stamp distinct Schur blocks";

  for (const ReducedSubnet* subnet : subnets) {
    EXPECT_EQ(subnet->symbolic_factorizations(), 1u);
    EXPECT_EQ(subnet->bundle_count(), ReducedSubnet::kMaxBundles);
  }
}

// A key whose reused pivot fails the check factors on its own: a cap-only
// interior is singular at DC, so that key's own Factor throws, and the next
// transient key still refactors on the untouched shared analysis.
TEST(ReduceBundleTest, PivotFallbackLeavesTheSharedAnalysisAlone) {
  auto circuit = std::make_unique<Circuit>();
  const int in = circuit->AddNode("in");
  const int mid = circuit->AddNode("mid");
  circuit->Emplace<VoltageSource>("vin", in, devices::kGround,
                                  std::make_unique<DcWaveform>(1.0));
  circuit->Emplace<Capacitor>("c1", in, mid, 1e-12);
  circuit->Emplace<Capacitor>("c2", mid, devices::kGround, 1e-12);
  circuit->Finalize();
  auto result = Reduce(std::move(circuit));
  ASSERT_TRUE(result.reduced);
  const auto subnets = SubnetsOf(*result.circuit);
  ASSERT_EQ(subnets.size(), 1u);

  const engine::MnaStructure mna(*result.circuit);
  engine::SolveContext ctx(*result.circuit, mna);
  engine::NewtonInputs dc;
  EXPECT_THROW(engine::EvalDevices(ctx, dc, false, true), SingularMatrixError);
  EXPECT_EQ(subnets[0]->symbolic_factorizations(), 2u);

  engine::NewtonInputs tran;
  tran.transient = true;
  tran.a0 = 1e9;
  EXPECT_NO_THROW(engine::EvalDevices(ctx, tran, false, true));
  EXPECT_EQ(subnets[0]->symbolic_factorizations(), 2u);
  EXPECT_EQ(subnets[0]->bundle_count(), 1u);
}

TEST(ReduceStatsTest, CountersExportUnderReducePrefixInSchemaOrder) {
  ReductionStats stats;
  stats.subnets = 2;
  stats.nodes_eliminated = 7;
  stats.interior_expansions = 3;
  util::telemetry::CounterRegistry registry;
  stats.ExportCounters(registry);
  const std::vector<std::string> expected = {
      "reduce.subnets",      "reduce.nodes_eliminated", "reduce.devices_absorbed",
      "reduce.static_subnets", "reduce.max_interior",   "reduce.max_ports",
      "reduce.interior_expansions"};
  ASSERT_EQ(registry.size(), expected.size());
  std::size_t i = 0;
  for (const auto& counter : registry.counters()) {
    EXPECT_EQ(counter.name, expected[i]) << "at position " << i;
    ++i;
  }
}

}  // namespace
}  // namespace wavepipe::reduce

// Every device writes nonzero Jacobian values and RHS entries only inside its
// StampFootprint.  Parallel assembly rests on that twice: colored assembly
// lets same-color devices stamp the shared matrix at once because their
// footprints are disjoint, and the reduction assembler publishes and
// re-zeroes its private copies only inside the footprints, so a stray write
// would never be cleared and would leak into every later pass.  Each device
// here is evaluated alone into zeroed buffers over DC and transient passes,
// gmin and gshunt continuation, first and later iterations, and limiting.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <set>
#include <string>
#include <typeinfo>
#include <vector>

#include "circuits/generators.hpp"
#include "devices/diode.hpp"
#include "devices/mosfet.hpp"
#include "devices/passive.hpp"
#include "devices/sources.hpp"
#include "devices/waveform.hpp"
#include "engine/circuit.hpp"
#include "engine/mna.hpp"
#include "reduce/reduce.hpp"
#include "reduce/reduced_subnet.hpp"

namespace wavepipe::devices {
namespace {

/// One of each of the twelve device types, with the optional parts that add
/// stamps switched on (diode series resistance and charge, MOS overlap and
/// Meyer capacitances, both MOS polarities, a separate bulk).
std::unique_ptr<engine::Circuit> EveryDeviceType() {
  auto circuit = std::make_unique<engine::Circuit>();
  const int a = circuit->AddNode("a");
  const int b = circuit->AddNode("b");
  const int c = circuit->AddNode("c");
  const int d = circuit->AddNode("d");
  const int e = circuit->AddNode("e");
  const int f = circuit->AddNode("f");
  const int g = circuit->AddNode("g");
  const int h = circuit->AddNode("h");
  circuit->Emplace<VoltageSource>(
      "vin", a, kGround,
      std::make_unique<PulseWaveform>(0.0, 2.5, 1e-9, 1e-10, 1e-10, 4e-9, 1e-8));
  circuit->Emplace<Resistor>("r1", a, b, 1e3);
  circuit->Emplace<Capacitor>("c1", b, kGround, 1e-12);
  circuit->Emplace<Inductor>("l1", b, c, 1e-6);
  circuit->Emplace<Inductor>("l2", d, kGround, 2e-6);
  circuit->Emplace<MutualInductance>("k1", "l1", "l2", 0.5, 1e-6, 2e-6);
  circuit->Emplace<CurrentSource>(
      "iload", c, kGround, std::make_unique<SinWaveform>(0.0, 1e-3, 1e8, 0.0, 0.0));
  circuit->Emplace<Vcvs>("e1", e, kGround, b, c, 2.0);
  circuit->Emplace<Vccs>("g1", f, kGround, b, c, 1e-3);
  circuit->Emplace<Cccs>("f1", g, kGround, "vin", 3.0);
  circuit->Emplace<Ccvs>("h1", h, kGround, "vin", 50.0);
  DiodeModel diode;
  diode.rs = 10.0;
  diode.cj0 = 1e-13;
  diode.tt = 1e-10;
  circuit->Emplace<Diode>("d1", b, e, diode);
  MosfetModel nmos;
  nmos.cgso = 1e-10;
  nmos.cgdo = 1e-10;
  nmos.cgbo = 1e-10;
  nmos.meyer = true;
  MosfetModel pmos = nmos;
  pmos.type = -1;
  pmos.vto = -0.7;
  pmos.meyer = false;
  // Four distinct terminals each, so every one of the 16 slots is its own.
  const int nd = circuit->AddNode("nd"), ng = circuit->AddNode("ng");
  const int ns = circuit->AddNode("ns"), nb = circuit->AddNode("nb");
  const int pd = circuit->AddNode("pd"), pg = circuit->AddNode("pg");
  const int ps = circuit->AddNode("ps"), pb = circuit->AddNode("pb");
  circuit->Emplace<Mosfet>("mn", nd, ng, ns, nb, nmos, 2e-6, 1e-6);
  circuit->Emplace<Mosfet>("mp", pd, pg, ps, pb, pmos, 4e-6, 1e-6);
  circuit->Finalize();
  return circuit;
}

struct Condition {
  const char* name;
  bool transient;
  double a0;
  double gmin;
  double gshunt;
  double source_scale;
  double amplitude;  ///< of the random iterate
};

constexpr Condition kConditions[] = {
    {"dc", false, 0.0, 0.0, 0.0, 1.0, 1.0},
    {"dc_gmin_gshunt", false, 0.0, 1e-9, 1e-3, 0.5, 1.0},
    {"transient", true, 2e9, 1e-12, 0.0, 1.0, 3.0},
    {"transient_gshunt", true, 1e9, 1e-12, 1e-6, 1.0, 10.0},
};

/// Evaluates every device of `circuit` alone and checks where it wrote.
/// Returns the device types it saw.
std::set<std::string> ExpectWritesInsideFootprints(const engine::Circuit& circuit) {
  const engine::MnaStructure mna(circuit);
  const auto n = static_cast<std::size_t>(mna.dimension());
  std::vector<double> x(n), jacobian(mna.nnz()), rhs(n);
  std::vector<double> state_now(static_cast<std::size_t>(circuit.num_states()));
  std::vector<double> state_hist(state_now.size());
  std::vector<double> limit_a(static_cast<std::size_t>(circuit.num_limit_slots()));
  std::vector<double> limit_b(limit_a.size());
  std::mt19937_64 rng(7);

  std::set<std::string> types;
  for (const auto& device : circuit.devices()) {
    const Device& model = *device;
    types.insert(typeid(model).name());
    std::vector<int> slots, rows;
    device->StampFootprint(slots, rows);
    const std::set<int> slot_set(slots.begin(), slots.end());
    const std::set<int> row_set(rows.begin(), rows.end());

    for (const Condition& cond : kConditions) {
      // Iteration 0 seeds the limiting memory; later iterations jump the
      // iterate far from it, so junction and gate limiting engage.
      for (int iter = 0; iter < 4; ++iter) {
        std::uniform_real_distribution<double> draw(-cond.amplitude, cond.amplitude);
        const double scale = iter == 0 ? 0.1 : 1.0;
        for (double& v : x) v = scale * draw(rng);
        for (double& h : state_hist) h = 1e-12 * draw(rng);
        std::fill(jacobian.begin(), jacobian.end(), 0.0);
        std::fill(rhs.begin(), rhs.end(), 0.0);

        EvalContext eval;
        eval.time = 2e-9 * (iter + 1);
        eval.a0 = cond.a0;
        eval.transient = cond.transient;
        eval.first_iteration = iter == 0;
        eval.gmin = cond.gmin;
        eval.gshunt = cond.gshunt;
        eval.source_scale = cond.source_scale;
        eval.x = x;
        eval.jacobian_values = jacobian;
        eval.rhs = rhs;
        eval.state_now = state_now;
        eval.state_hist = state_hist;
        eval.limit_prev = limit_a;
        eval.limit_now = limit_b;
        eval.limit_valid = iter > 0;
        device->Eval(eval);
        std::swap(limit_a, limit_b);

        for (std::size_t k = 0; k < jacobian.size(); ++k) {
          if (jacobian[k] != 0.0) {
            EXPECT_TRUE(slot_set.count(static_cast<int>(k)) > 0)
                << device->name() << " wrote Jacobian slot " << k << " outside its footprint ("
                << cond.name << ", iteration " << iter << ")";
          }
        }
        for (std::size_t r = 0; r < rhs.size(); ++r) {
          if (rhs[r] != 0.0) {
            EXPECT_TRUE(row_set.count(static_cast<int>(r)) > 0)
                << device->name() << " wrote RHS row " << r << " outside its footprint ("
                << cond.name << ", iteration " << iter << ")";
          }
        }
      }
    }
  }
  return types;
}

TEST(FootprintContract, EveryDeviceTypeWritesOnlyInsideItsFootprint) {
  const auto circuit = EveryDeviceType();
  EXPECT_EQ(ExpectWritesInsideFootprints(*circuit).size(), 12u);
}

TEST(FootprintContract, ReducedSubnetWritesOnlyInsideItsFootprint) {
  auto result = reduce::Reduce(circuits::MakeParasiticLadder(3, 6).circuit);
  ASSERT_TRUE(result.reduced);
  const std::set<std::string> types = ExpectWritesInsideFootprints(*result.circuit);
  const std::string subnet = typeid(reduce::ReducedSubnet).name();
  EXPECT_EQ(types.count(subnet), 1u);
}

}  // namespace
}  // namespace wavepipe::devices

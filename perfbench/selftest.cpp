// Self-test of the benchmark's own logic: the seeded workload generator and
// the span self-time attribution.  Runs every check; exits non-zero if any
// failed.
//
//   perfbench_selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "netlist/elaborate.hpp"
#include "netlist/parser.hpp"
#include "host_probe.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

int g_checks = 0;
int g_failures = 0;

void Check(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void CheckNear(double got, double want, const std::string& what) {
  Check(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
        what + " (got " + std::to_string(got) + ", want " + std::to_string(want) + ")");
}

/// Number of leading node arguments of an element card that must not move
/// with the seed.  Current sources are the seeded load positions.
std::size_t FixedNodeArgs(char kind) {
  if (kind == 'i') return 0;
  return kind == 'm' ? 4 : 2;
}

void TestWorkloadsAreSeeded() {
  for (const std::string& name : perfbench::WorkloadNames()) {
    const auto a = perfbench::MakeWorkload(name, 7);
    const auto again = perfbench::MakeWorkload(name, 7);
    const auto b = perfbench::MakeWorkload(name, 8);
    Check(a.deck == again.deck && a.sweep_deck == again.sweep_deck,
          name + ": same seed gives byte-identical decks");
    Check(a.deck != b.deck, name + ": different seeds give different decks");

    const auto pa = wavepipe::netlist::ParseNetlist(a.deck);
    const auto pb = wavepipe::netlist::ParseNetlist(b.deck);
    bool same_topology = pa.elements.size() == pb.elements.size() &&
                         pa.print_nodes.size() == pb.print_nodes.size();
    bool values_differ = false;
    for (std::size_t i = 0; same_topology && i < pa.elements.size(); ++i) {
      const auto& ea = pa.elements[i];
      const auto& eb = pb.elements[i];
      const std::size_t nodes = FixedNodeArgs(ea.kind);
      same_topology = ea.kind == eb.kind && ea.name == eb.name &&
                      ea.args.size() == eb.args.size() && ea.args.size() >= nodes;
      for (std::size_t k = 0; same_topology && k < nodes; ++k) {
        same_topology = ea.args[k] == eb.args[k];
      }
      if (same_topology && ea.args != eb.args) values_differ = true;
    }
    Check(same_topology, name + ": different seeds keep the topology");
    Check(values_differ, name + ": different seeds draw different values");

    const auto elab = wavepipe::netlist::Elaborate(pa);
    Check(elab.has_tran && elab.probes.size() >= 2, name + ": deck elaborates with probes");
    const auto sweep = wavepipe::netlist::ParseNetlist(a.sweep_deck);
    Check(sweep.mc.present && sweep.mc.runs == a.sweep_variants,
          name + ": sweep deck carries the .mc card");
  }
}

wavepipe::util::telemetry::SpanEvent Ev(const char* category, const char* name,
                                        double start, double dur, std::uint32_t lane) {
  wavepipe::util::telemetry::SpanEvent e;
  e.category = category;
  e.name = name;
  e.start_us = start;
  e.dur_us = dur;
  e.lane = lane;
  return e;
}

void TestAttribution() {
  using wavepipe::util::telemetry::SpanEvent;
  std::vector<SpanEvent> events = {
      // lane 0: a[0,100) > b[10,40) > c[20,30);  a > d[50,70)
      Ev("x", "a", 0, 100, 0), Ev("x", "b", 10, 30, 0), Ev("x", "c", 20, 10, 0),
      Ev("solve", "time_point", 50, 20, 0),
      // lane 1: e[0,50) > f[10,20); g[30,60) overlaps e's end without nesting
      Ev("x", "e", 0, 50, 1), Ev("solve", "time_point", 10, 10, 1), Ev("x", "g", 30, 30, 1),
  };
  SpanEvent marker = Ev("x", "mark", 60, 0, 0);
  marker.instant = true;
  events.push_back(marker);

  const perfbench::Attribution a = perfbench::Attribute(events);
  CheckNear(a.Of("x", "a").self_us, 50, "a self = 100 - (30 + 20)");
  CheckNear(a.Of("x", "b").self_us, 20, "b self = 30 - 10");
  CheckNear(a.Of("x", "c").self_us, 10, "leaf c self = its duration");
  CheckNear(a.Of("x", "e").self_us, 20, "e self = 50 - (10 + the 20 g covers)");
  CheckNear(a.Of("x", "g").self_us, 30, "g self = its duration");
  const auto tp = a.Of("solve", "time_point");
  Check(tp.count == 2, "time_point counted on both lanes");
  CheckNear(tp.total_us, 30, "time_point total over lanes");
  CheckNear(tp.self_us, 30, "time_point self over lanes");
  Check(a.Of("x", "mark").count == 0, "instants are ignored");
  Check(a.Of("x", "missing").count == 0, "absent span reads as zero");
  CheckNear(a.by_lane.at(0).busy_us, 100, "lane 0 busy = union");
  CheckNear(a.by_lane.at(1).busy_us, 60, "lane 1 busy = union [0,60)");
  CheckNear(a.by_lane.at(0).self_us, 100, "nested lane: self times sum to busy");
  CheckNear(a.SelfTotalUs(), 100 + 20 + 10 + 30, "self total over lanes");

  const std::vector<SpanEvent> rounds = {
      Ev("round", "bwp", 0, 100, 0),          Ev("solve", "time_point", 10, 40, 1),
      Ev("solve", "time_point", 20, 70, 2),   Ev("round", "bwp", 100, 50, 0),
      Ev("solve", "time_point", 110, 90, 1),  Ev("solve", "time_point", 300, 5, 1),
  };
  // Round 1: 100 - 70.  Round 2: the solve is clipped to the round end, 50 - 40.
  CheckNear(perfbench::RoundOverheadUs(rounds), 40, "round overhead");
  Check(perfbench::Durations(rounds, "solve", "time_point").size() == 4, "durations filter");
}

void TestQuantile() {
  CheckNear(perfbench::Quantile({4, 1, 3, 2}, 0.5), 2.5, "median interpolates");
  CheckNear(perfbench::Quantile({4, 1, 3, 2}, 0.0), 1, "q=0 is the minimum");
  CheckNear(perfbench::Quantile({4, 1, 3, 2}, 1.0), 4, "q=1 is the maximum");
  CheckNear(perfbench::Quantile({}, 0.5), 0, "empty input");
}

void TestHostProbe() {
  const double a = perfbench::HostProbeSeconds();
  const double b = perfbench::HostProbeSeconds();
  Check(a > 0.0 && b > 0.0 && a < 1.0 && b < 1.0, "host probe takes a positive, short time");
}

}  // namespace

int main() {
  TestWorkloadsAreSeeded();
  TestAttribution();
  TestQuantile();
  TestHostProbe();
  std::printf("perfbench_selftest: %d checks, %d failed\n", g_checks, g_failures);
  return g_failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}

#include "workloads.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {
namespace {

// ---- fixed sizes ----------------------------------------------------------
constexpr int kGridSide = 24;          // grid_lu: side x side RC mesh
constexpr int kGridLoadRows = 2;       // grid_lu: switching current loads, one
constexpr int kGridLoadCols = 2;       //   per cell of a rows x cols partition
constexpr int kChainStages = 100;      // chain_newton: inverter stages
constexpr int kParasiticStages = 24;   // parasitic_reduce: stages
constexpr int kSweepStages = 12;       // mc_sweep: stages of the swept chain
constexpr int kLadderTaps = 12;        // RC segments per parasitic wire
constexpr int kSweepVariants = 48;     // mc_sweep: Monte Carlo variants
constexpr int kSideSweepVariants = 4;  // the other workloads' .mc batch

/// splitmix64: a small, fully specified generator, so decks stay the same
/// whatever the library's own random-number code does.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }
  int Below(int n) { return static_cast<int>(Next() % static_cast<std::uint64_t>(n)); }

 private:
  std::uint64_t state_;
};

/// Per-workload stream: the same seed gives unrelated draws per workload.
Rng StreamFor(std::string_view name, std::uint64_t seed) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return Rng(h ^ (seed * 0x9E3779B97F4A7C15ULL));
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Printf-style line appender.
template <typename... Args>
void Line(std::string& out, const char* format, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, args...);
  out += buf;
  out += '\n';
}

/// Finishes a deck body into the transient deck and the .mc sweep deck.
Workload Finish(const std::string& body, int variants, double tolerance_share,
                double speculative_tolerance_share) {
  Workload w;
  w.deck = body + ".end\n";
  w.sweep_deck = body + ".mc " + std::to_string(variants) + " variation=0.05\n.end\n";
  w.sweep_variants = variants;
  w.err_tolerance_share = tolerance_share;
  w.speculative_err_tolerance_share = speculative_tolerance_share;
  return w;
}

const char* const kMosModels =
    ".model nmos1 NMOS (vto=0.7 kp=120u gamma=0.45 phi=0.65 lambda=0.04)\n"
    ".model pmos1 PMOS (vto=-0.8 kp=40u gamma=0.5 phi=0.65 lambda=0.05)\n";

/// RC power grid with seeded switching current loads: linear, so every
/// time point is one Newton iteration and the sparse LU dominates.  Each load
/// sits at a seeded node of its own cell of the grid, so loads never share a
/// node and their spread over the grid is the same for every seed.
Workload GridLu(std::uint64_t seed) {
  Rng rng = StreamFor("grid_lu", seed);
  const int n = kGridSide;
  std::string d;
  Line(d, "grid_lu %dx%d seed %llu", n, n, static_cast<unsigned long long>(seed));
  Line(d, "V1 vdd 0 DC 1.0");
  Line(d, "Rvdd vdd n0_0 0.05");
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (j + 1 < n) {
        Line(d, "Rh%d_%d n%d_%d n%d_%d %s", i, j, i, j, i, j + 1,
             Num(rng.Uniform(0.98, 1.02)).c_str());
      }
      if (i + 1 < n) {
        Line(d, "Rv%d_%d n%d_%d n%d_%d %s", i, j, i, j, i + 1, j,
             Num(rng.Uniform(0.98, 1.02)).c_str());
      }
      Line(d, "Cd%d_%d n%d_%d 0 %sp", i, j, i, j, Num(rng.Uniform(0.9, 1.1)).c_str());
    }
  }
  std::string probes = ".print v(n0_0)";
  const int cell_rows = n / kGridLoadRows, cell_cols = n / kGridLoadCols;
  for (int k = 0; k < kGridLoadRows * kGridLoadCols; ++k) {
    // Cell interiors only: a margin of one node keeps loads off the edges.
    const int i = (k / kGridLoadCols) * cell_rows + 1 + rng.Below(cell_rows - 2);
    const int j = (k % kGridLoadCols) * cell_cols + 1 + rng.Below(cell_cols - 2);
    // Pulses start 1.4 ns apart, so every seed switches the loads in the same
    // order; the seed jitters their timing by a few percent.
    const double edge = rng.Uniform(0.49, 0.51);
    Line(d, "Il%d n%d_%d 0 DC 0 PULSE(0 %sm %sn %sn %sn %sn 8n)", k, i, j,
         Num(rng.Uniform(14.0, 16.0)).c_str(), Num(0.4 + 1.4 * k + rng.Uniform(-0.05, 0.05)).c_str(),
         Num(edge).c_str(), Num(edge).c_str(), Num(rng.Uniform(1.95, 2.05)).c_str());
    probes += " v(n" + std::to_string(i) + "_" + std::to_string(j) + ")";
  }
  Line(d, ".tran 0.5n 8n");
  d += probes + " v(n" + std::to_string(n - 1) + "_" + std::to_string(n - 1) + ")\n";
  // Measured worst deviations over seeds 1-10, as shares of the swing: 0.005
  // for serial, finegrained, bwp and reduce; 0.49 for combined.
  return Finish(d, kSideSweepVariants, 0.05, 0.8);
}

/// Clock source plus the shared stage loop of the two inverter chains.
/// `taps` = 1 gives a lumped RC stage load; more taps give an RC ladder wire
/// whose interior nodes only R and C touch (what reduce::Reduce eliminates).
std::string InverterChain(Rng& rng, int stages, int taps, double r_lo, double r_hi,
                          double c_lo_f, double c_hi_f) {
  std::string d = kMosModels;
  Line(d, "Vdd vdd 0 2.5");
  const double edge = rng.Uniform(0.195, 0.205);
  Line(d, "Vclk c0 0 DC 0 PULSE(0 2.5 %sn %sn %sn %sn 5n)", Num(rng.Uniform(0.95, 1.05)).c_str(),
       Num(edge).c_str(), Num(edge).c_str(), Num(rng.Uniform(2.38, 2.42)).c_str());
  for (int k = 0; k < stages; ++k) {
    Line(d, "MP%d o%d c%d vdd vdd pmos1 W=4u L=1u", k, k, k);
    Line(d, "MN%d o%d c%d 0 0 nmos1 W=2u L=1u", k, k, k);
    std::string from = "o" + std::to_string(k);
    for (int t = 1; t <= taps; ++t) {
      const std::string to = t == taps ? "c" + std::to_string(k + 1)
                                       : "w" + std::to_string(k) + "_" + std::to_string(t);
      Line(d, "R%d_%d %s %s %s", k, t, from.c_str(), to.c_str(),
           Num(rng.Uniform(r_lo, r_hi)).c_str());
      Line(d, "C%d_%d %s 0 %sf", k, t, to.c_str(), Num(rng.Uniform(c_lo_f, c_hi_f)).c_str());
      from = to;
    }
  }
  return d;
}

/// Probes every `every`-th stage input plus the chain's end.
std::string ChainProbes(int stages, int every) {
  std::string p = ".print";
  for (int k = 0; k < stages; k += every) p += " v(c" + std::to_string(k) + ")";
  return p + " v(c" + std::to_string(stages) + ")\n";
}

/// Clocked CMOS inverter chain with lumped seeded RC stage loads: device
/// evaluation and many small Newton solves, the pipeline-dispatch workload.
Workload ChainNewton(std::uint64_t seed) {
  Rng rng = StreamFor("chain_newton", seed);
  std::string d;
  Line(d, "chain_newton %d stages seed %llu", kChainStages,
       static_cast<unsigned long long>(seed));
  d += InverterChain(rng, kChainStages, 1, 180.0, 220.0, 18.0, 22.0);
  Line(d, ".tran 0.1n 10n");
  d += ChainProbes(kChainStages, 10);
  return Finish(d, kSideSweepVariants, 0.12, 0.12);
}

/// Inverter chain whose wires are seeded RC ladders: the reduction workload.
std::string ParasiticChain(Rng& rng, const char* title, int stages, std::uint64_t seed) {
  std::string d;
  Line(d, "%s %d stages x %d taps seed %llu", title, stages, kLadderTaps,
       static_cast<unsigned long long>(seed));
  d += InverterChain(rng, stages, kLadderTaps, 36.0, 44.0, 1.8, 2.2);
  Line(d, ".tran 0.1n 7.5n");
  d += ChainProbes(stages, 6);
  return d;
}

Workload ParasiticReduce(std::uint64_t seed) {
  Rng rng = StreamFor("parasitic_reduce", seed);
  const std::string d = ParasiticChain(rng, "parasitic_reduce", kParasiticStages, seed);
  return Finish(d, kSideSweepVariants, 0.12, 0.12);
}

Workload McSweep(std::uint64_t seed) {
  Rng rng = StreamFor("mc_sweep", seed);
  const std::string d = ParasiticChain(rng, "mc_sweep", kSweepStages, seed);
  return Finish(d, kSweepVariants, 0.12, 0.12);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"grid_lu", "chain_newton",
                                                 "parasitic_reduce", "mc_sweep"};
  return names;
}

Workload MakeWorkload(std::string_view name, std::uint64_t seed) {
  if (name == "grid_lu") return GridLu(seed);
  if (name == "chain_newton") return ChainNewton(seed);
  if (name == "parasitic_reduce") return ParasiticReduce(seed);
  if (name == "mc_sweep") return McSweep(seed);
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

}  // namespace perfbench

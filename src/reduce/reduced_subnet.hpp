// ReducedSubnet: the exact Schur-complement equivalent of an eliminated
// linear-only subnetwork, packaged as a Device.
//
// The reduction pass (reduce.hpp) detects maximal subgraphs containing only
// resistors, capacitors and current sources, eliminates their interior nodes
// and replaces the absorbed devices with one ReducedSubnet per subgraph.  At
// every Eval() the subnet stamps the small dense port-coupling block
//
//   S      = A_pp - A_pi * A_ii^{-1} * A_ip          (Jacobian, ports x ports)
//   r_hat  = r_p  - A_pi * A_ii^{-1} * r_i           (RHS, port rows)
//
// where A is the subnetwork's own companion-model contribution G + a0*C and
// r its companion RHS.  Because Gaussian elimination of interior unknowns is
// exact for a linear block, the engine's solution on the surviving unknowns
// is algebraically identical to the unreduced system's — the reduction is a
// performance transform, not an approximation.  The eliminated interior
// voltages are back-substituted (v_i = A_ii^{-1} (r_i - A_ip v_p)) and
// written to state slots claimed during Bind(), which is how probes of
// eliminated nodes keep producing waveforms (engine::ProbeSet::EncodeState).
//
// Bundles.  The factored A_ii, X = A_ii^{-1} A_ip and S depend only on the
// pair (a0', gshunt).  They live in a bounded, mutex-protected cache keyed
// bit-exactly on that pair, so a cache hit costs one triangular solve plus
// two small dense products per Eval.  A variable-step run changes a0 almost
// every step, so most keys are built once and used for a few Evals; building
// one is therefore numeric work only:
//   * the constructor fixes the interior pattern and what each absorbed R
//     and C adds to every pattern slot, and runs the subnet's one symbolic
//     analysis: a minimum-degree ordering of that pattern with diagonal
//     pivots, factored from a strictly diagonally dominant stand-in matrix,
//     so neither the ordering nor the pivot sequence depends on a key;
//   * a key scatters G + a0'*C (+ gshunt on the interior diagonal) into the
//     fixed pattern and runs SparseLu::Refactor on the shared analysis, then
//     np triangular solves for X and an np x np product for S;
//   * storage of a bundle dropped from the cache goes back to a free list
//     once its last in-flight user releases it, and the next build writes
//     into it, so a warm run allocates nothing per key beyond the
//     shared_ptr control block;
//   * a key whose reused pivot fails the check (a cap-only interior at DC,
//     say) gets a full Factor of its own with partial pivoting, leaving the
//     shared analysis alone; a singular block throws SingularMatrixError
//     from Eval(), where the rescue ladder owns it.
//
// Determinism: a bundle is a pure function of its key.  The ordering and
// pivot sequence are fixed by the pattern, a rebuild overwrites every value
// of recycled storage, and the fallback Factor reuses the subnet's ordering.
// Reduced stamps are therefore bit-identical across runs, threads, cache
// histories and checkpoint resumes, which start with a cold cache.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "devices/device.hpp"
#include "devices/waveform.hpp"
#include "sparse/csc.hpp"
#include "sparse/lu.hpp"

namespace wavepipe::reduce {

class ReducedSubnet final : public devices::Device {
 public:
  /// Local endpoint index convention used by the absorbed-device records:
  /// [0, num_interior) are interior nodes in ascending ORIGINAL node id,
  /// [num_interior, num_interior + num_ports) are ports in ascending original
  /// node id, and devices::kGround (-1) is ground.
  struct AbsorbedResistor {
    int a = -1, b = -1;
    double conductance = 0.0;
  };
  struct AbsorbedCapacitor {
    int a = -1, b = -1;
    double capacitance = 0.0;
  };
  struct AbsorbedSource {
    int a = -1, b = -1;                          ///< current flows a -> b
    const devices::Waveform* waveform = nullptr; ///< owned by `absorbed` below
    const devices::Device* device = nullptr;     ///< for CollectBreakpoints
  };

  /// `port_nodes` are node ids of the REBUILT circuit, ascending original id.
  /// `absorbed` keeps the eliminated device objects alive (the source records
  /// point into their waveforms); their node ids are stale and never used.
  ReducedSubnet(std::string name, std::vector<int> port_nodes, int num_interior,
                std::vector<AbsorbedResistor> resistors,
                std::vector<AbsorbedCapacitor> capacitors,
                std::vector<AbsorbedSource> sources,
                std::vector<std::unique_ptr<devices::Device>> absorbed);
  ~ReducedSubnet() override;

  // ---- Device interface -----------------------------------------------------
  void Bind(devices::Binder& binder) override;
  void DeclarePattern(devices::PatternBuilder& pattern) override;
  /// May throw SingularMatrixError when the interior block factorization hits
  /// a zero pivot (degenerate eliminated subnetwork, or the injected
  /// "reduce.singular" fault).  The Newton loops catch it and classify the
  /// solve as failed-singular — the same contract as a singular full-matrix
  /// pivot.
  void Eval(devices::EvalContext& ctx) const override;
  void StampFootprint(std::vector<int>& jacobian_slots,
                      std::vector<int>& rhs_rows) const override;
  void CollectBreakpoints(double t0, double t1, std::vector<double>& out) const override;
  void TerminalNodes(std::vector<int>& out) const override;
  void RemapNodes(const std::vector<int>& map) override;
  int pattern_size() const override;
  /// Interior voltages and absorbed-capacitor charges are back-substituted
  /// THROUGH the state history, not derived from x alone — schedulers that
  /// accept points solved over predicted histories must refresh them.
  bool states_depend_on_history() const override { return true; }

  // ---- reduction-pass queries -----------------------------------------------
  int num_ports() const { return static_cast<int>(ports_.size()); }
  int num_interior() const { return ni_; }
  std::size_t num_absorbed_devices() const { return absorbed_.size(); }
  /// Purely resistive (no capacitors, no sources): the equivalent is one
  /// constant conductance block — a single cached bundle serves every solve.
  bool is_static() const { return capacitors_.empty() && sources_.empty(); }

  /// State slot holding the back-substituted voltage of interior node k
  /// (ascending original node id).  Valid after Bind(); the reduction pass
  /// routes probes of eliminated nodes here via ProbeSet::EncodeState.
  int interior_state_slot(int k) const {
    return interior_state_[static_cast<std::size_t>(k)];
  }

  /// Bound on cached bundles; the oldest is evicted beyond it.
  static constexpr std::size_t kMaxBundles = 32;
  /// Factor bundles currently cached (telemetry/tests).
  std::size_t bundle_count() const;
  /// Full factorizations, symbolic pass included, this subnet has run: the
  /// one shared analysis plus one per key whose pivot check failed.  Every
  /// other bundle build is a numeric Refactor (telemetry/tests).
  std::uint64_t symbolic_factorizations() const {
    return symbolic_factorizations_.load(std::memory_order_relaxed);
  }

 private:
  struct Bundle;
  struct BundlePool;
  /// Bundle for the bit-exact key (a0', gshunt); builds and caches on miss.
  /// The cache is bounded (kMaxBundles, oldest evicted) and first-insert-wins
  /// so concurrent Evals agree on one (identical) bundle.
  std::shared_ptr<const Bundle> BundleFor(double a0, double gshunt) const;
  std::shared_ptr<const Bundle> ComputeBundle(double a0, double gshunt) const;

  std::vector<int> ports_;  ///< rebuilt-circuit node ids, ascending original id
  int ni_ = 0;
  std::vector<AbsorbedResistor> resistors_;
  std::vector<AbsorbedCapacitor> capacitors_;
  std::vector<AbsorbedSource> sources_;
  std::vector<std::unique_ptr<devices::Device>> absorbed_;

  std::vector<int> cap_state_;       ///< per-capacitor charge slot (Bind)
  std::vector<int> interior_state_;  ///< per-interior-node voltage slot (Bind)
  std::vector<int> port_slots_;      ///< np x np Jacobian slots, row-major

  // Key-independent model, fixed at construction: A = G + a0'*C split into
  // its conductance and capacitance parts over the interior pattern, the
  // interior-port block (ni x np, column-major) and the port diagonal.
  sparse::CscMatrix interior_;         ///< A_ii pattern
  std::vector<double> g_values_;       ///< G part of A_ii, per pattern slot
  std::vector<double> c_values_;       ///< C part of A_ii, per pattern slot
  std::vector<int> diag_slots_;        ///< A_ii diagonal slot per interior
  std::vector<double> a_ip_g_, a_ip_c_;
  std::vector<double> s_diag_g_, s_diag_c_;
  sparse::SparseLu analysis_;          ///< the shared symbolic analysis
  mutable std::atomic<std::uint64_t> symbolic_factorizations_{0};

  std::shared_ptr<BundlePool> pool_;
  mutable std::mutex cache_mutex_;
  mutable std::vector<std::pair<std::pair<double, double>, std::shared_ptr<const Bundle>>>
      cache_;
};

}  // namespace wavepipe::reduce

// Single-device test harness: implements Binder + PatternBuilder and drives
// Eval() against hand-written unknown vectors, exposing the stamped Jacobian
// as a (row, col) -> value map.  Lets device unit tests check stamps without
// the full engine.
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "devices/device.hpp"
#include "util/error.hpp"

namespace wavepipe::testutil {

class DeviceHarness : public devices::Binder, public devices::PatternBuilder {
 public:
  /// `num_nodes` fixes where branch unknowns start.
  explicit DeviceHarness(int num_nodes) : num_nodes_(num_nodes) {}

  /// Runs Bind + DeclarePattern for the device (call once).
  void Setup(devices::Device& device) {
    device.Bind(*this);
    device.DeclarePattern(*this);
    limit_a_.assign(static_cast<std::size_t>(num_limits_), 0.0);
    limit_b_.assign(static_cast<std::size_t>(num_limits_), 0.0);
    state_now_.assign(static_cast<std::size_t>(num_states_), 0.0);
    state_hist_.assign(static_cast<std::size_t>(num_states_), 0.0);
  }

  struct EvalResult {
    std::map<std::pair<int, int>, double> jacobian;
    std::vector<double> rhs;
    std::vector<double> states;
  };

  struct EvalSpec {
    std::vector<double> x;  ///< unknowns (nodes then branches)
    double time = 0.0;
    double a0 = 0.0;
    bool transient = false;
    double gmin = 0.0;
    double source_scale = 1.0;
    std::vector<double> state_hist = {};  ///< optional; zero if empty
    bool limit_valid = false;        ///< carry limiting memory from last Eval
  };

  EvalResult Eval(const devices::Device& device, const EvalSpec& spec) {
    const int total = num_nodes_ + num_branches_;
    std::vector<double> x = spec.x;
    x.resize(static_cast<std::size_t>(total), 0.0);
    std::vector<double> values(coords_.size(), 0.0);
    std::vector<double> rhs(static_cast<std::size_t>(total), 0.0);
    if (!spec.state_hist.empty()) {
      state_hist_ = spec.state_hist;
      state_hist_.resize(static_cast<std::size_t>(num_states_), 0.0);
    } else {
      state_hist_.assign(static_cast<std::size_t>(num_states_), 0.0);
    }

    devices::EvalContext ctx;
    ctx.time = spec.time;
    ctx.a0 = spec.a0;
    ctx.transient = spec.transient;
    ctx.first_iteration = !spec.limit_valid;
    ctx.gmin = spec.gmin;
    ctx.source_scale = spec.source_scale;
    ctx.x = x;
    ctx.jacobian_values = values;
    ctx.rhs = rhs;
    ctx.state_now = state_now_;
    ctx.state_hist = state_hist_;
    ctx.limit_prev = limit_a_;
    ctx.limit_now = limit_b_;
    ctx.limit_valid = spec.limit_valid;
    device.Eval(ctx);
    std::swap(limit_a_, limit_b_);

    EvalResult out;
    out.rhs = std::move(rhs);
    out.states = state_now_;
    for (std::size_t k = 0; k < coords_.size(); ++k) {
      out.jacobian[coords_[k]] += values[k];
    }
    return out;
  }

  int num_branches() const { return num_branches_; }
  int num_states() const { return num_states_; }

  // Binder:
  int AddBranch(const std::string&) override { return num_nodes_ + num_branches_++; }
  int AddState(const std::string&) override { return num_states_++; }
  int AddLimitSlot() override { return num_limits_++; }
  int BranchOf(const std::string& name) override {
    const auto it = known_branches_.find(name);
    if (it == known_branches_.end()) throw wavepipe::ElaborationError("no branch: " + name);
    return it->second;
  }

  /// Pre-registers a foreign branch for F/H/K devices.
  void RegisterBranch(const std::string& name, int index) { known_branches_[name] = index; }

  // PatternBuilder:
  int Entry(int row, int col) override {
    if (row < 0 || col < 0) return -1;
    coords_.emplace_back(row, col);
    return static_cast<int>(coords_.size()) - 1;
  }

 private:
  int num_nodes_;
  int num_branches_ = 0;
  int num_states_ = 0;
  int num_limits_ = 0;
  std::vector<std::pair<int, int>> coords_;
  std::map<std::string, int> known_branches_;
  std::vector<double> limit_a_, limit_b_;
  std::vector<double> state_now_, state_hist_;
};

}  // namespace wavepipe::testutil

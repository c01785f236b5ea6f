// Passive elements: resistor, capacitor, inductor, mutual inductance.
#pragma once

#include <string>

#include "devices/device.hpp"

namespace wavepipe::devices {

/// Linear resistor between nodes p and n.
class Resistor final : public Device {
 public:
  Resistor(std::string name, int p, int n, double resistance);

  void Bind(Binder&) override {}
  void DeclarePattern(PatternBuilder& pattern) override;
  void Eval(EvalContext& ctx) const override;
  void StampFootprint(std::vector<int>& jacobian_slots,
                      std::vector<int>& rhs_rows) const override;
  void TerminalNodes(std::vector<int>& out) const override {
    out.insert(out.end(), {p_, n_});
  }
  void RemapNodes(const std::vector<int>& map) override {
    p_ = RemapNode(map, p_);
    n_ = RemapNode(map, n_);
  }
  int pattern_size() const override { return 4; }

  double resistance() const { return resistance_; }
  /// Exactly the value Eval() stamps — the reduction pass absorbs this, not
  /// a recomputed 1/R, so reduced stamps reuse the same bits.
  double conductance() const { return conductance_; }
  int p() const { return p_; }
  int n() const { return n_; }

 private:
  int p_, n_;
  double resistance_;
  double conductance_;
  ConductanceSlots slots_;
};

/// Linear capacitor.  Charge q = C·v is handed to the integrator; the device
/// stamps geq = a0·C plus the companion current.  Open during DC (a0 = 0).
class Capacitor final : public Device {
 public:
  Capacitor(std::string name, int p, int n, double capacitance);

  void Bind(Binder& binder) override;
  void DeclarePattern(PatternBuilder& pattern) override;
  void Eval(EvalContext& ctx) const override;
  void StampFootprint(std::vector<int>& jacobian_slots,
                      std::vector<int>& rhs_rows) const override;
  void TerminalNodes(std::vector<int>& out) const override {
    out.insert(out.end(), {p_, n_});
  }
  void RemapNodes(const std::vector<int>& map) override {
    p_ = RemapNode(map, p_);
    n_ = RemapNode(map, n_);
  }
  int pattern_size() const override { return 4; }

  double capacitance() const { return capacitance_; }
  int state_slot() const { return state_; }
  int p() const { return p_; }
  int n() const { return n_; }

 private:
  int p_, n_;
  double capacitance_;
  int state_ = -1;
  ConductanceSlots slots_;
};

/// Linear inductor with a branch-current unknown.  Branch equation
/// v_p − v_n − dφ/dt = 0 with φ = L·i; shorts during DC.
class Inductor final : public Device {
 public:
  Inductor(std::string name, int p, int n, double inductance);

  void Bind(Binder& binder) override;
  void DeclarePattern(PatternBuilder& pattern) override;
  void Eval(EvalContext& ctx) const override;
  void StampFootprint(std::vector<int>& jacobian_slots,
                      std::vector<int>& rhs_rows) const override;
  void TerminalNodes(std::vector<int>& out) const override {
    out.insert(out.end(), {p_, n_});
  }
  void RemapNodes(const std::vector<int>& map) override {
    p_ = RemapNode(map, p_);
    n_ = RemapNode(map, n_);
  }
  int pattern_size() const override { return 5; }

  double inductance() const { return inductance_; }
  int branch() const { return branch_; }

 private:
  int p_, n_;
  double inductance_;
  int branch_ = -1;
  int state_ = -1;
  int slot_bp_ = -1, slot_bn_ = -1, slot_pb_ = -1, slot_nb_ = -1, slot_bb_ = -1;
};

/// Mutual inductance K between two previously declared inductors:
/// adds −M·d(i_other)/dt to each branch equation, M = k·sqrt(L1·L2).
class MutualInductance final : public Device {
 public:
  MutualInductance(std::string name, std::string inductor1, std::string inductor2,
                   double coupling, double l1, double l2);

  void Bind(Binder& binder) override;
  void DeclarePattern(PatternBuilder& pattern) override;
  void Eval(EvalContext& ctx) const override;
  void StampFootprint(std::vector<int>& jacobian_slots,
                      std::vector<int>& rhs_rows) const override;
  void TerminalNodes(std::vector<int>& out) const override { (void)out; }
  void RemapNodes(const std::vector<int>& map) override { (void)map; }
  int pattern_size() const override { return 2; }

  double mutual() const { return mutual_; }

 private:
  std::string name1_, name2_;
  double mutual_;
  int branch1_ = -1, branch2_ = -1;
  int state12_ = -1, state21_ = -1;  // cross fluxes M·i2 and M·i1
  int slot_b1b2_ = -1, slot_b2b1_ = -1;
};

}  // namespace wavepipe::devices

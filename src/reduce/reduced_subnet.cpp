#include "reduce/reduced_subnet.hpp"

#include <algorithm>
#include <span>

#include "sparse/triplet.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace wavepipe::reduce {

namespace {

/// Per-thread scratch so the hot Eval() path allocates only on first use.
/// Safe under concurrent Eval(): each worker thread owns its own copy, and
/// every vector is fully (re)sized and overwritten per call.
struct Workspace {
  std::vector<double> r;        // local RHS, interior then ports
  std::vector<double> w;        // A_ii^{-1} r_i
  std::vector<double> vp;       // port voltages of the current iterate
  std::vector<double> vi;       // back-substituted interior voltages
  std::vector<double> lu_work;  // SparseLu::Solve workspace
};

Workspace& LocalWorkspace() {
  thread_local Workspace ws;
  return ws;
}

}  // namespace

/// The interior factorization and Schur products for one (a0', gshunt) key.
/// Immutable once published; shared by concurrent Evals through
/// shared_ptr<const Bundle>, and recycled through BundlePool afterwards.
struct ReducedSubnet::Bundle {
  sparse::CscMatrix a_ii;       ///< this key's A_ii on the subnet's pattern
  sparse::SparseLu lu;          ///< factored a_ii
  bool shares_analysis = false; ///< lu holds the subnet's symbolic analysis
  std::vector<double> a_ip;     ///< ni x np, column-major (a_ip[i + j*ni])
  std::vector<double> x;        ///< ni x np, column-major: A_ii^{-1} a_ip
  std::vector<double> s;        ///< np x np, row-major Schur complement
  std::unique_ptr<Bundle> next_free;  ///< BundlePool link while unused
};

/// Bundles whose last reference is gone, waiting to be rebuilt in place: an
/// intrusive list, so returning one (in a shared_ptr deleter) never
/// allocates or throws.  Each published bundle's deleter holds the pool, so
/// it outlives both the subnet and the last in-flight bundle.
struct ReducedSubnet::BundlePool {
  std::mutex mutex;
  std::unique_ptr<Bundle> free;
};

ReducedSubnet::ReducedSubnet(std::string name, std::vector<int> port_nodes,
                             int num_interior,
                             std::vector<AbsorbedResistor> resistors,
                             std::vector<AbsorbedCapacitor> capacitors,
                             std::vector<AbsorbedSource> sources,
                             std::vector<std::unique_ptr<devices::Device>> absorbed)
    : devices::Device(std::move(name)),
      ports_(std::move(port_nodes)),
      ni_(num_interior),
      resistors_(std::move(resistors)),
      capacitors_(std::move(capacitors)),
      sources_(std::move(sources)),
      absorbed_(std::move(absorbed)),
      pool_(std::make_shared<BundlePool>()) {
  WP_ASSERT(ni_ > 0);
  const int ni = ni_;
  const int np = num_ports();
  auto check_local = [&](int a, int b) {
    WP_ASSERT(a >= devices::kGround && a < ni + np);
    WP_ASSERT(b >= devices::kGround && b < ni + np);
    WP_ASSERT(a < ni || b < ni);  // absorbed => at least one interior end
  };
  for (const auto& r : resistors_) check_local(r.a, r.b);
  for (const auto& c : capacitors_) check_local(c.a, c.b);
  for (const auto& s : sources_) check_local(s.a, s.b);

  // Interior pattern: every diagonal (so the gshunt fold and the pivot always
  // have an entry, even for nodes whose devices vanish at DC) plus every
  // interior-interior R or C coupling, capacitors included at every key.
  sparse::TripletBuilder triplets(ni, ni);
  for (int k = 0; k < ni; ++k) triplets.AddPattern(k, k);
  auto reserve = [&](int a, int b) {
    if (a != b && a >= 0 && a < ni && b >= 0 && b < ni) {
      triplets.AddPattern(a, b);
      triplets.AddPattern(b, a);
    }
  };
  for (const auto& r : resistors_) reserve(r.a, r.b);
  for (const auto& c : capacitors_) reserve(c.a, c.b);
  interior_ = triplets.ToCsc();

  const std::size_t nnz = interior_.num_nonzeros();
  g_values_.assign(nnz, 0.0);
  c_values_.assign(nnz, 0.0);
  a_ip_g_.assign(static_cast<std::size_t>(ni) * static_cast<std::size_t>(np), 0.0);
  a_ip_c_.assign(a_ip_g_.size(), 0.0);
  s_diag_g_.assign(static_cast<std::size_t>(np), 0.0);
  s_diag_c_.assign(static_cast<std::size_t>(np), 0.0);
  diag_slots_.resize(static_cast<std::size_t>(ni));
  for (int k = 0; k < ni; ++k) {
    diag_slots_[static_cast<std::size_t>(k)] = interior_.FindEntry(k, k);
  }

  // Two-terminal element of value g between local endpoints (a, b).  By the
  // absorption rule at least one endpoint is interior and port-port coupling
  // cannot occur, so the port-side contribution is diagonal-only.
  auto stamp = [&](int a, int b, double g, std::vector<double>& values,
                   std::vector<double>& a_ip, std::vector<double>& s_diag) {
    if (a == b) return;  // degenerate self-loop stamps net zero
    for (int e : {a, b}) {
      if (e < 0) continue;
      if (e < ni) {
        values[static_cast<std::size_t>(diag_slots_[static_cast<std::size_t>(e)])] += g;
      } else {
        s_diag[static_cast<std::size_t>(e - ni)] += g;
      }
    }
    if (a < 0 || b < 0) return;
    if (a < ni && b < ni) {
      values[static_cast<std::size_t>(interior_.FindEntry(a, b))] -= g;
      values[static_cast<std::size_t>(interior_.FindEntry(b, a))] -= g;
      return;
    }
    const int i = a < ni ? a : b;  // the interior end
    const int p = (a < ni ? b : a) - ni;
    a_ip[static_cast<std::size_t>(i) +
         static_cast<std::size_t>(p) * static_cast<std::size_t>(ni)] -= g;
  };
  for (const auto& r : resistors_) {
    stamp(r.a, r.b, r.conductance, g_values_, a_ip_g_, s_diag_g_);
  }
  for (const auto& c : capacitors_) {
    stamp(c.a, c.b, c.capacitance, c_values_, a_ip_c_, s_diag_c_);
  }

  // The one symbolic analysis: factor a strictly diagonally dominant matrix
  // on the pattern (off-diagonals -1, diagonal = column degree + 1).  Its
  // pivots stay on the diagonal under any ordering, so the pivot sequence is
  // the minimum-degree order of the pattern itself and never singular.
  sparse::CscMatrix stand_in = interior_;
  auto values = stand_in.mutable_values();
  for (int col = 0; col < ni; ++col) {
    const int degree = stand_in.col_end(col) - stand_in.col_begin(col) - 1;
    for (int k = stand_in.col_begin(col); k < stand_in.col_end(col); ++k) {
      values[static_cast<std::size_t>(k)] =
          stand_in.row_of(k) == col ? static_cast<double>(degree + 1) : -1.0;
    }
  }
  analysis_.Factor(stand_in);
  symbolic_factorizations_.store(1, std::memory_order_relaxed);
}

ReducedSubnet::~ReducedSubnet() = default;

void ReducedSubnet::Bind(devices::Binder& binder) {
  // Finalize() may Bind more than once (deferred-bind retry); reassign from
  // scratch each time.
  cap_state_.clear();
  cap_state_.reserve(capacitors_.size());
  for (std::size_t k = 0; k < capacitors_.size(); ++k) {
    cap_state_.push_back(binder.AddState(name()));
  }
  interior_state_.clear();
  interior_state_.reserve(static_cast<std::size_t>(ni_));
  for (int k = 0; k < ni_; ++k) {
    interior_state_.push_back(binder.AddState(name()));
  }
}

void ReducedSubnet::DeclarePattern(devices::PatternBuilder& pattern) {
  // The Schur complement couples every port with every port: a dense np x np
  // block.  This is the reduction's pattern cost — bounded by the (small)
  // port count, independent of how many interior nodes were eliminated.
  const int np = num_ports();
  port_slots_.assign(static_cast<std::size_t>(np) * static_cast<std::size_t>(np), -1);
  for (int i = 0; i < np; ++i) {
    for (int j = 0; j < np; ++j) {
      port_slots_[static_cast<std::size_t>(i * np + j)] =
          pattern.Entry(ports_[static_cast<std::size_t>(i)],
                        ports_[static_cast<std::size_t>(j)]);
    }
  }
}

std::shared_ptr<const ReducedSubnet::Bundle> ReducedSubnet::BundleFor(
    double a0, double gshunt) const {
  const std::pair<double, double> key(a0, gshunt);
  // Newest first: consecutive Newton iterations of one step share its key.
  auto find = [&]() -> std::shared_ptr<const Bundle> {
    for (auto it = cache_.rbegin(); it != cache_.rend(); ++it) {
      if (it->first == key) return it->second;
    }
    return nullptr;
  };
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (auto bundle = find()) return bundle;
  }
  // Build outside the lock: concurrent builders produce bit-identical
  // bundles (a bundle is a pure function of its key), so it does not matter
  // whose insert wins.
  auto built = ComputeBundle(a0, gshunt);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (auto bundle = find()) return bundle;  // first insert won; agree with it
  // Evicting the oldest may run its deleter here (cache lock, then pool lock;
  // nothing takes them in the other order).
  if (cache_.size() >= kMaxBundles) cache_.erase(cache_.begin());
  cache_.emplace_back(key, built);
  return built;
}

std::shared_ptr<const ReducedSubnet::Bundle> ReducedSubnet::ComputeBundle(
    double a0, double gshunt) const {
  if (WP_FAULT_POINT("reduce.singular")) {
    throw SingularMatrixError("reduce.singular: injected interior pivot failure");
  }
  const int ni = ni_;
  const int np = num_ports();

  std::unique_ptr<Bundle> bundle;
  {
    std::lock_guard<std::mutex> lock(pool_->mutex);
    if (pool_->free) {
      bundle = std::move(pool_->free);
      pool_->free = std::move(bundle->next_free);
    }
  }
  if (!bundle) {
    bundle = std::make_unique<Bundle>();
    bundle->a_ii = interior_;
  }

  // A_ii = G + a0'*C, plus the gshunt the engine stamps on every surviving
  // node diagonal: the eliminated interiors must receive the same shunt or
  // the rescue ladder (DC gmin stepping, transient gshunt rungs) would
  // behave differently reduced vs unreduced.
  auto values = bundle->a_ii.mutable_values();
  for (std::size_t k = 0; k < values.size(); ++k) {
    values[k] = g_values_[k] + a0 * c_values_[k];
  }
  if (gshunt > 0.0) {
    for (int slot : diag_slots_) values[static_cast<std::size_t>(slot)] += gshunt;
  }
  bundle->a_ip.resize(a_ip_g_.size());
  for (std::size_t k = 0; k < a_ip_g_.size(); ++k) {
    bundle->a_ip[k] = a_ip_g_[k] + a0 * a_ip_c_[k];
  }

  if (!bundle->shares_analysis) {
    bundle->lu.CopyFactorization(analysis_);
    bundle->shares_analysis = true;
  }
  if (!bundle->lu.Refactor(bundle->a_ii)) {
    // The fixed pivot sequence does not suit this key: pivot it afresh on
    // the subnet's ordering.  Throws SingularMatrixError on a zero pivot.
    bundle->shares_analysis = false;
    symbolic_factorizations_.fetch_add(1, std::memory_order_relaxed);
    bundle->lu.Factor(bundle->a_ii);
  }

  // X = A_ii^{-1} A_ip, one triangular solve per port column.
  bundle->x = bundle->a_ip;
  std::vector<double>& lu_work = LocalWorkspace().lu_work;
  for (int j = 0; j < np; ++j) {
    std::span<double> column(bundle->x.data() + static_cast<std::size_t>(j) * ni,
                             static_cast<std::size_t>(ni));
    bundle->lu.Solve(column, lu_work);
  }

  // S = A_pp - A_pi X  with A_pi = A_ip^T (the absorbed block is symmetric)
  // and A_pp diagonal (see the constructor's stamp).
  bundle->s.resize(static_cast<std::size_t>(np) * static_cast<std::size_t>(np));
  for (int i = 0; i < np; ++i) {
    const std::size_t d = static_cast<std::size_t>(i);
    for (int j = 0; j < np; ++j) {
      double acc = (i == j) ? s_diag_g_[d] + a0 * s_diag_c_[d] : 0.0;
      const double* col_i = bundle->a_ip.data() + static_cast<std::size_t>(i) * ni;
      const double* col_j = bundle->x.data() + static_cast<std::size_t>(j) * ni;
      for (int k = 0; k < ni; ++k) acc -= col_i[k] * col_j[k];
      bundle->s[static_cast<std::size_t>(i * np + j)] = acc;
    }
  }

  // Publish; the last reference to drop hands the storage back to the pool.
  return std::shared_ptr<Bundle>(bundle.release(), [pool = pool_](Bundle* done) {
    std::lock_guard<std::mutex> lock(pool->mutex);
    done->next_free = std::move(pool->free);
    pool->free.reset(done);
  });
}

void ReducedSubnet::Eval(devices::EvalContext& ctx) const {
  const int ni = ni_;
  const int np = num_ports();
  // DC zeroes the dynamic branches exactly as for an unreduced capacitor
  // (a0 = 0, history = 0); a cap-free subnet normalizes to key 0.0 so the
  // whole run shares one conductance-only bundle per gshunt value.
  const double a0 = (ctx.transient && !capacitors_.empty()) ? ctx.a0 : 0.0;
  const auto bundle = BundleFor(a0, ctx.gshunt);

  Workspace& ws = LocalWorkspace();
  ws.r.assign(static_cast<std::size_t>(ni + np), 0.0);
  auto add_r = [&](int local, double value) {
    if (local >= 0) ws.r[static_cast<std::size_t>(local)] += value;
  };

  // Companion RHS of the absorbed devices.  A capacitor's equivalent current
  // is exactly its integrator history term (ieq = i - geq*v = hist), which is
  // iterate-independent — the whole local RHS is, so one interior solve per
  // Eval suffices for exact equivalence.
  for (std::size_t k = 0; k < capacitors_.size(); ++k) {
    const double ieq = ctx.state_hist[static_cast<std::size_t>(cap_state_[k])];
    add_r(capacitors_[k].a, -ieq);
    add_r(capacitors_[k].b, ieq);
  }
  for (const auto& s : sources_) {
    const double i = ctx.source_scale *
                     (ctx.transient ? s.waveform->Value(ctx.time) : s.waveform->DcValue());
    add_r(s.a, -i);
    add_r(s.b, i);
  }

  // w = A_ii^{-1} r_i
  ws.w.assign(ws.r.begin(), ws.r.begin() + ni);
  bundle->lu.Solve(std::span<double>(ws.w), ws.lu_work);

  ws.vp.resize(static_cast<std::size_t>(np));
  for (int j = 0; j < np; ++j) {
    ws.vp[static_cast<std::size_t>(j)] = ctx.V(ports_[static_cast<std::size_t>(j)]);
  }

  // Stamp the Schur block and the condensed port RHS.
  for (int i = 0; i < np; ++i) {
    for (int j = 0; j < np; ++j) {
      ctx.AddJacobian(port_slots_[static_cast<std::size_t>(i * np + j)],
                      bundle->s[static_cast<std::size_t>(i * np + j)]);
    }
    double rp = ws.r[static_cast<std::size_t>(ni + i)];
    const double* col_i = bundle->a_ip.data() + static_cast<std::size_t>(i) * ni;
    for (int k = 0; k < ni; ++k) rp -= col_i[k] * ws.w[static_cast<std::size_t>(k)];
    ctx.AddRhs(ports_[static_cast<std::size_t>(i)], rp);
  }

  // Back-substitute the interior voltages of THIS iterate:
  //   v_i = A_ii^{-1} (r_i - A_ip v_p) = w - X v_p.
  ws.vi = ws.w;
  for (int j = 0; j < np; ++j) {
    const double vpj = ws.vp[static_cast<std::size_t>(j)];
    if (vpj == 0.0) continue;
    const double* col_j = bundle->x.data() + static_cast<std::size_t>(j) * ni;
    for (int k = 0; k < ni; ++k) ws.vi[static_cast<std::size_t>(k)] -= col_j[k] * vpj;
  }
  for (int k = 0; k < ni; ++k) {
    ctx.state_now[static_cast<std::size_t>(interior_state_[static_cast<std::size_t>(k)])] =
        ws.vi[static_cast<std::size_t>(k)];
  }

  // Absorbed capacitor charges follow the back-substituted voltages so the
  // integrator history they feed next step matches the unreduced run.
  auto local_v = [&](int local) {
    if (local < 0) return 0.0;
    return local < ni ? ws.vi[static_cast<std::size_t>(local)]
                      : ws.vp[static_cast<std::size_t>(local - ni)];
  };
  for (std::size_t k = 0; k < capacitors_.size(); ++k) {
    const double v = local_v(capacitors_[k].a) - local_v(capacitors_[k].b);
    ctx.IntegrateState(cap_state_[k], capacitors_[k].capacitance * v);
  }
}

void ReducedSubnet::StampFootprint(std::vector<int>& jacobian_slots,
                                   std::vector<int>& rhs_rows) const {
  jacobian_slots.insert(jacobian_slots.end(), port_slots_.begin(), port_slots_.end());
  // Port RHS rows are written only when the subnet carries a companion RHS.
  if (!capacitors_.empty() || !sources_.empty()) {
    rhs_rows.insert(rhs_rows.end(), ports_.begin(), ports_.end());
  }
}

void ReducedSubnet::CollectBreakpoints(double t0, double t1,
                                       std::vector<double>& out) const {
  for (const auto& s : sources_) s.device->CollectBreakpoints(t0, t1, out);
}

void ReducedSubnet::TerminalNodes(std::vector<int>& out) const {
  out.insert(out.end(), ports_.begin(), ports_.end());
}

void ReducedSubnet::RemapNodes(const std::vector<int>& map) {
  for (int& p : ports_) p = devices::RemapNode(map, p);
}

int ReducedSubnet::pattern_size() const {
  return num_ports() * num_ports();
}

std::size_t ReducedSubnet::bundle_count() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_.size();
}

}  // namespace wavepipe::reduce

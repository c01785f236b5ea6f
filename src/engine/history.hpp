// Solution history: the time-ordered set of accepted solution points that
// integrators, predictors, and the LTE controller consume.
//
// Points are immutable once accepted and are shared by shared_ptr so that
// WavePipe worker threads can snapshot a window of history without copying
// full solution vectors (the snapshot stays valid even if the shared history
// advances concurrently).
#pragma once

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "util/error.hpp"

namespace wavepipe::engine {

/// One accepted transient solution.
struct SolutionPoint {
  double time = 0.0;
  std::vector<double> x;     ///< all unknowns (node voltages, branch currents)
  std::vector<double> q;     ///< device charges/fluxes
  std::vector<double> qdot;  ///< dq/dt under the method that produced the point
  /// True for backward-pipelined intermediate points.  They are full-accuracy
  /// solutions and participate in predictors and LTE estimation, but Gear-2
  /// skips them when picking its two-step q-history: the very uneven step
  /// ratio they induce would push variable-step BDF2 out of its zero-stable
  /// range (r <= 1 + sqrt(2)).
  bool auxiliary = false;
  /// Id of the transient driver's ledger record that produced the point (the
  /// dependency its consumers name), -1 until the driver accepts it.
  /// Predicted points never carry one.
  int ledger_id = -1;
};

using SolutionPointPtr = std::shared_ptr<const SolutionPoint>;

/// A time-ascending window of history points handed to a solve task.
using HistoryWindow = std::vector<SolutionPointPtr>;

/// Bounded, time-sorted container of accepted points.  Backward-pipelined
/// points arrive out of order, hence sorted insertion rather than append.
class History {
 public:
  explicit History(int max_depth = 8) : max_depth_(max_depth) { WP_ASSERT(max_depth >= 2); }

  void Add(SolutionPointPtr point) {
    WP_ASSERT(point != nullptr);
    const auto pos = std::upper_bound(
        points_.begin(), points_.end(), point->time,
        [](double t, const SolutionPointPtr& p) { return t < p->time; });
    points_.insert(pos, std::move(point));
    while (static_cast<int>(points_.size()) > max_depth_) points_.pop_front();
  }

  int size() const { return static_cast<int>(points_.size()); }
  bool empty() const { return points_.empty(); }

  /// Most recent point (largest time).
  const SolutionPointPtr& newest() const {
    WP_ASSERT(!points_.empty());
    return points_.back();
  }
  double newest_time() const { return newest()->time; }

  /// age = 0 is the newest point, age = 1 the one before it, ...
  const SolutionPointPtr& FromNewest(int age) const {
    WP_ASSERT(age >= 0 && age < size());
    return points_[points_.size() - 1 - static_cast<std::size_t>(age)];
  }

  /// The `count` newest points in ascending time order (fewer if not
  /// available).  This is the snapshot handed to solve tasks.
  HistoryWindow Window(int count) const {
    const int n = std::min(count, size());
    HistoryWindow window;
    window.reserve(static_cast<std::size_t>(n));
    for (int i = n - 1; i >= 0; --i) window.push_back(FromNewest(i));
    return window;
  }

  void Clear() { points_.clear(); }

 private:
  int max_depth_;
  std::deque<SolutionPointPtr> points_;  // ascending time
};

}  // namespace wavepipe::engine

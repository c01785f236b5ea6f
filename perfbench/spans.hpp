// Span self-time attribution over a telemetry capture, plus the small
// order statistics the benchmark reports.
//
// A span's self time is its duration minus the part of its interval that
// its child spans cover.  Children are found per lane (a lane is one thread
// of work), so two lanes running concurrently never absorb each other's
// time.  Where spans on one lane overlap without nesting, a parent's
// covered part is the union of its children's intervals, clipped to the
// parent.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/telemetry.hpp"

namespace perfbench {

struct SpanTotals {
  std::uint64_t count = 0;
  double total_us = 0.0;  ///< summed durations
  double self_us = 0.0;   ///< summed self times
};

struct LaneTotals {
  double busy_us = 0.0;  ///< union of every span interval on the lane
  double self_us = 0.0;  ///< summed self times (equals busy_us when nested)
};

struct Attribution {
  /// Keyed by (category, name).
  std::map<std::pair<std::string, std::string>, SpanTotals> by_name;
  std::map<std::uint32_t, LaneTotals> by_lane;

  /// Totals of one (category, name); zeros when absent.
  SpanTotals Of(const std::string& category, const std::string& name) const;
  /// Summed self time of every span on every lane.
  double SelfTotalUs() const;
};

/// Attributes self time over `events` (instants are ignored).
Attribution Attribute(std::span<const wavepipe::util::telemetry::SpanEvent> events);

/// Sum over `round` spans of (round duration - the longest solve/time_point
/// span that starts inside the round, on any lane).
double RoundOverheadUs(std::span<const wavepipe::util::telemetry::SpanEvent> events);

/// Durations [us] of every span with this category and name.
std::vector<double> Durations(std::span<const wavepipe::util::telemetry::SpanEvent> events,
                              const char* category, const char* name);

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty input.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

}  // namespace perfbench

#include "spans.hpp"

#include <algorithm>
#include <cstring>

namespace perfbench {

using wavepipe::util::telemetry::SpanEvent;

SpanTotals Attribution::Of(const std::string& category, const std::string& name) const {
  const auto it = by_name.find({category, name});
  return it == by_name.end() ? SpanTotals{} : it->second;
}

double Attribution::SelfTotalUs() const {
  double total = 0.0;
  for (const auto& [lane, totals] : by_lane) total += totals.self_us;
  return total;
}

Attribution Attribute(std::span<const SpanEvent> events) {
  std::map<std::uint32_t, std::vector<const SpanEvent*>> lanes;
  for (const SpanEvent& e : events) {
    if (!e.instant) lanes[e.lane].push_back(&e);
  }

  struct Open {
    const SpanEvent* event;
    double end;
    double cursor;   // end of the children's union so far
    double covered;  // children's union length, clipped to the span
  };

  Attribution out;
  for (auto& [lane, list] : lanes) {
    // Parents before their children: earlier start first, longer first on ties.
    std::sort(list.begin(), list.end(), [](const SpanEvent* a, const SpanEvent* b) {
      if (a->start_us != b->start_us) return a->start_us < b->start_us;
      return a->dur_us > b->dur_us;
    });
    LaneTotals& lane_totals = out.by_lane[lane];
    std::vector<Open> stack;
    double lane_cursor = -1e300;

    const auto close = [&](const Open& open) {
      const double self = std::max(0.0, open.event->dur_us - open.covered);
      SpanTotals& t = out.by_name[{open.event->category, open.event->name}];
      t.count += 1;
      t.total_us += open.event->dur_us;
      t.self_us += self;
      lane_totals.self_us += self;
    };

    for (const SpanEvent* e : list) {
      const double start = e->start_us;
      const double end = start + e->dur_us;
      while (!stack.empty() && stack.back().end <= start) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) {
        Open& parent = stack.back();
        const double from = std::max(start, parent.cursor);
        const double to = std::min(end, parent.end);
        if (to > from) parent.covered += to - from;
        parent.cursor = std::max(parent.cursor, to);
      }
      lane_totals.busy_us += std::max(0.0, end - std::max(start, lane_cursor));
      lane_cursor = std::max(lane_cursor, end);
      stack.push_back({e, end, start, 0.0});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  return out;
}

namespace {

bool Is(const SpanEvent& e, const char* category, const char* name) {
  return !e.instant && std::strcmp(e.category, category) == 0 &&
         (name == nullptr || std::strcmp(e.name, name) == 0);
}

}  // namespace

double RoundOverheadUs(std::span<const SpanEvent> events) {
  std::vector<std::pair<double, double>> solves;  // (start, duration)
  for (const SpanEvent& e : events) {
    if (Is(e, "solve", "time_point")) solves.emplace_back(e.start_us, e.dur_us);
  }
  std::sort(solves.begin(), solves.end());
  double overhead = 0.0;
  for (const SpanEvent& round : events) {
    if (!Is(round, "round", nullptr)) continue;
    const double end = round.start_us + round.dur_us;
    double longest = 0.0;
    auto it = std::lower_bound(solves.begin(), solves.end(),
                               std::make_pair(round.start_us, -1.0));
    for (; it != solves.end() && it->first < end; ++it) {
      longest = std::max(longest, std::min(it->second, end - it->first));
    }
    overhead += std::max(0.0, round.dur_us - longest);
  }
  return overhead;
}

std::vector<double> Durations(std::span<const SpanEvent> events, const char* category,
                              const char* name) {
  std::vector<double> out;
  for (const SpanEvent& e : events) {
    if (Is(e, category, name)) out.push_back(e.dur_us);
  }
  return out;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench

#include "host_probe.hpp"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

constexpr std::uint32_t kTableSize = 1u << 18;  // gather table entries
constexpr int kGatherSteps = 100000;
constexpr int kLuSize = 64;
constexpr int kLuReps = 4;
constexpr int kExpCalls = 50000;

/// One cycle through every table entry, in a fixed pseudo-random order.
struct GatherTable {
  std::vector<std::uint32_t> next;
  std::vector<double> values;

  GatherTable() : next(kTableSize), values(kTableSize) {
    std::vector<std::uint32_t> order(kTableSize);
    for (std::uint32_t i = 0; i < kTableSize; ++i) order[i] = i;
    std::uint64_t x = 88172645463325252ULL;  // xorshift64, fixed seed
    for (std::uint32_t i = kTableSize - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(order[i], order[x % (i + 1)]);
    }
    for (std::uint32_t i = 0; i < kTableSize; ++i) {
      next[order[i]] = order[(i + 1) % kTableSize];
      values[i] = 1.0 + i * 1e-7;
    }
  }
};

const GatherTable& Table() {
  static const GatherTable table;
  return table;
}

double Kernel(const GatherTable& t) {
  double acc = 0.0;
  std::vector<double> a(kLuSize * kLuSize);
  for (int rep = 0; rep < kLuReps; ++rep) {
    for (int i = 0; i < kLuSize; ++i) {
      for (int j = 0; j < kLuSize; ++j) {
        a[i * kLuSize + j] = (i == j ? kLuSize : 0.0) + 1.0 / (1 + i + j + rep);
      }
    }
    for (int k = 0; k < kLuSize; ++k) {
      for (int i = k + 1; i < kLuSize; ++i) {
        const double l = a[i * kLuSize + k] / a[k * kLuSize + k];
        for (int j = k + 1; j < kLuSize; ++j) a[i * kLuSize + j] -= l * a[k * kLuSize + j];
      }
    }
    acc += a[kLuSize * kLuSize - 1];
  }
  std::uint32_t j = 0;
  for (int k = 0; k < kGatherSteps; ++k) {
    j = t.next[j];
    acc += t.values[j];
  }
  for (int k = 0; k < kExpCalls; ++k) acc += std::exp(-1e-5 * k);
  return acc;
}

}  // namespace

double HostProbeSeconds() {
  const GatherTable& table = Table();  // built on first use, outside the timing
  const auto t0 = std::chrono::steady_clock::now();
  const double result = Kernel(table);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  // A non-finite result never happens; the test keeps the kernel's work live.
  return std::isfinite(result) ? seconds : -1.0;
}

}  // namespace perfbench

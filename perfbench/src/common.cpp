#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of no values");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median_round_rate(const std::vector<double>& op_seconds) {
  const std::size_t n = op_seconds.size();
  const std::size_t rounds = std::min<std::size_t>(kRounds, n);
  std::vector<double> rates;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::size_t lo = r * n / rounds, hi = (r + 1) * n / rounds;
    double busy = 0.0;
    for (std::size_t i = lo; i < hi; ++i) busy += op_seconds[i];
    rates.push_back(static_cast<double>(hi - lo) / busy);
  }
  return median(rates);
}

double median_window_rate(const std::vector<double>& completion_offsets,
                          double wall_seconds) {
  const double width = wall_seconds / kRounds;
  std::vector<double> counts(kRounds, 0.0);
  for (double t : completion_offsets) {
    const auto w = std::min<std::size_t>(kRounds - 1, static_cast<std::size_t>(t / width));
    counts[w] += 1.0;
  }
  for (double& c : counts) c /= width;
  return median(counts);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

long llc_bytes() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return l3 > 0 ? l3 : 105L << 20;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finaliser over (seed, stream).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench

// Shared plumbing of the measured-clock benchmark: command-line
// arguments, the metric list a workload reports, order statistics and
// process memory.  Every timing here is host wall time read from
// std::chrono::steady_clock (the measured clock); modelled device
// time is only ever reported under a name that says "model".
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point t) {
  return seconds_between(t, Clock::now());
}

inline Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its span file into.
  std::string out_dir = ".bench_out";
  /// Instant the process started running main(): set-up is timed from
  /// here.
  Clock::time_point process_start;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the verdict line's counts plus its metrics.
struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Linear-interpolated quantile q in [0, 1] (the median at 0.5).
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Throughput of a sequential loop, robust to interference that
/// stalls part of a run: the ops split into kRounds consecutive rounds
/// of near-equal count, each round's rate is its ops over the sum of
/// their latencies, and the median rate is returned.
double median_round_rate(const std::vector<double>& op_seconds);

/// Throughput of a concurrent loop: the phase [0, wall) splits into
/// kRounds equal windows, each window's rate is the completions that
/// fall in it over its length, and the median rate is returned.
double median_window_rate(const std::vector<double>& completion_offsets,
                          double wall_seconds);

inline constexpr int kRounds = 10;

/// Peak resident set of this process so far, in MB (getrusage).
double peak_rss_mb();

/// Last-level cache size in bytes (sysconf), 105 MiB when unknown.
long llc_bytes();

/// Seed derivation: independent streams for each use of one seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench

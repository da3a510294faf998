// Per-layer probes of the traced run.
//
// Each probe times one call into one library layer in isolation, on
// the measured clock, at the shape and precision config of the
// workload it runs under; LayerReport collects every per-layer metric
// of BENCHMARK.json so a traced run always emits the full set.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

#include "common.hpp"
#include "core/block_toeplitz.hpp"
#include "device/device_spec.hpp"
#include "device/fault_plan.hpp"
#include "device/stream.hpp"
#include "precision/precision.hpp"

namespace perfbench {

/// Every per-layer metric; NaN until measured.  emit() refuses to
/// report a set with a gap.
struct LayerReport {
  static constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();
  double util_parallel_for_us = kUnset;
  double device_launch_us = kUnset;
  double device_launches_per_op = kUnset;
  double device_allocs_per_op = kUnset;
  double device_pool_speedup = kUnset;
  double device_copy_gbps = kUnset;
  double device_model_ms_per_op = kUnset;
  double precision_pad_ms = kUnset;
  double fft_fwd_ms = kUnset;
  double fft_inv_ms = kUnset;
  double blas_sbgemv_ms = kUnset;
  double blas_sbgemv_adj_ms = kUnset;
  double blas_sbgemv_gbps = kUnset;
  double core_fwd_ms = kUnset;
  double core_adj_ms = kUnset;
  double core_glue_ms = kUnset;
  double core_op_setup_s = kUnset;
  double core_spectrum_f_s = kUnset;
  double inverse_gram_s = kUnset;
  double inverse_greedy_s = kUnset;
  double inverse_prior_ms = kUnset;
  double inverse_matvecs = kUnset;
  double serve_submit_us = kUnset;
  double serve_queue_ms = kUnset;
  double serve_exec_ms = kUnset;
  double serve_mean_batch = kUnset;
  double serve_plan_cache_hit_rate = kUnset;
  double serve_add_tenant_s = kUnset;
  double comm_model_ms_per_batch = kUnset;
  double trace_op_p50_ms = kUnset;

  /// Append every metric to `out`; throws std::logic_error naming the
  /// first one left unmeasured.
  void emit(Outcome& out) const;
};

/// Host time of one no-op Stream::launch over 64 gridblocks, enough
/// to go through the thread pool (median over batches).
double probe_launch_us();

/// Host time of one empty util::ThreadPool::parallel_for_chunks on
/// the global pool.
double probe_parallel_for_us();

/// Host copy bandwidth over the global pool, bytes read plus bytes
/// written per second, with each array at least 4x the last-level
/// cache.
double probe_copy_gbps();

/// Share of the two applies' time by which their isolated parts may
/// exceed them before the two paths are said not to reconcile: the
/// timing bound of the benchmark's end-to-end metrics.
inline constexpr double kReconcileNoise = 0.25;

/// Isolated phase calls of one F and one F* apply at `op`'s shape in
/// `config`, plus the two applies themselves, each the median of
/// `reps` repetitions.  Fills the precision, fft, blas and core
/// apply/glue fields of `report`.  Returns whether the isolated parts
/// reconcile with the applies: core.glue_ms (the applies minus their
/// four FFTs and two SBGEMVs) is at least -kReconcileNoise times
/// core.fwd_ms + core.adj_ms.
bool probe_pipeline(fftmv::device::Device& dev,
                    const fftmv::core::BlockToeplitzOperator& op,
                    const fftmv::precision::PrecisionConfig& config, int reps,
                    std::uint64_t seed, LayerReport& report);

/// Apply time of one F on a device with a 1-thread pool (which runs
/// every parallel_for inline on the calling thread: the plain
/// single-threaded baseline) divided by the same apply on the
/// process-wide pool.
double probe_pool_speedup(const fftmv::device::DeviceSpec& spec,
                          const fftmv::core::BlockToeplitzOperator& op,
                          const fftmv::precision::PrecisionConfig& config,
                          int reps, std::uint64_t seed);

/// Fill the launch/alloc counts per op from a zero-rate FaultPlan.
void record_device_counts(const fftmv::device::FaultStats& stats,
                          std::int64_t ops, LayerReport& report);

/// A FaultPlan that never injects: attached only to count launches
/// and allocations.
std::shared_ptr<fftmv::device::FaultPlan> counting_fault_plan();

}  // namespace perfbench

// paper_matvec: the paper's own experiment.  One op is a single-RHS
// F apply followed by F* on its output (a Hessian action without the
// prior) in the Pareto-front config dssdd, at N_m:N_d = 50:1 and
// N_t = 1000.  The single-precision spectrum (512 MB) is several
// times the last-level cache, so the SBGEMV streams from memory, and
// the packed FFT length 2 N_t = 2000 = 2^4 * 5^3 is not a power of
// two, so the FFTs take the Bluestein path.
#include <memory>
#include <vector>

#include "checks.hpp"
#include "core/block_toeplitz.hpp"
#include "core/matvec_plan.hpp"
#include "core/synthetic.hpp"
#include "device/device_spec.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace fftmv;

namespace {

constexpr core::ProblemDims kDims{2000, 32, 1000};
/// Distinct inputs per run; ops cycle through them so every op after
/// the warm-up repeats an input whose output is already known.
constexpr int kInputs = 2;
/// Output time steps per input checked against dense double sums.
constexpr int kSampledSteps = 3;

std::vector<index_t> sampled_steps(util::Rng& rng, index_t nt) {
  std::vector<index_t> steps{0, nt - 1};
  while (static_cast<int>(steps.size()) < kSampledSteps) {
    steps.push_back(static_cast<index_t>(rng.next_u64() % static_cast<std::uint64_t>(nt)));
  }
  return steps;
}

}  // namespace

Outcome run_paper_matvec(const Args& args) {
  const auto config = precision::PrecisionConfig::parse("dssdd");
  const auto dims = core::LocalDims::single_rank(kDims);
  const index_t nt = kDims.n_t, nm = kDims.n_m, nd = kDims.n_d;
  LayerReport layers;
  if (args.trace) layers.device_copy_gbps = probe_copy_gbps();

  // ---- set-up: operator, spectra, plan, inputs, warm-up ----
  const auto col = core::make_first_block_col(dims, derive_seed(args.seed, 1));
  const device::DeviceSpec spec = device::make_mi300x();
  device::Device dev(spec);
  device::Stream stream(dev);
  auto t0 = Clock::now();
  const core::BlockToeplitzOperator op(dev, stream, dims, col);
  layers.core_op_setup_s = seconds_since(t0);
  t0 = Clock::now();
  op.spectrum_f(stream);
  layers.core_spectrum_f_s = seconds_since(t0);
  core::FftMatvecPlan plan(dev, stream, dims);

  std::vector<std::vector<double>> m(kInputs), d_ref(kInputs), y_ref(kInputs);
  for (int k = 0; k < kInputs; ++k) {
    m[k] = core::make_input_vector(nt * nm, derive_seed(args.seed, 10 + k));
    d_ref[k].resize(static_cast<std::size_t>(nt * nd));
    y_ref[k].resize(static_cast<std::size_t>(nt * nm));
    plan.forward(op, m[k], d_ref[k], config);
    plan.adjoint(op, d_ref[k], y_ref[k], config);
  }
  const double setup_s = seconds_since(args.process_start);

  // ---- timed phase ----
  if (args.trace) dev.set_fault_plan(counting_fault_plan());
  const double model_start = stream.now();
  std::vector<double> d(static_cast<std::size_t>(nt * nd));
  std::vector<double> y(static_cast<std::size_t>(nt * nm));
  std::vector<double> op_seconds;
  std::int64_t failed = 0;
  std::vector<std::int64_t> ops_per_input(kInputs, 0);
  const auto deadline = deadline_after(args.seconds);
  for (std::int64_t i = 0; Clock::now() < deadline; ++i) {
    const int k = static_cast<int>(i % kInputs);
    const auto start = Clock::now();
    {
      Scope op_span("op", i);
      {
        Scope s("core.forward");
        plan.forward(op, m[k], d, config);
      }
      {
        Scope s("core.adjoint");
        plan.adjoint(op, d, y, config);
      }
    }
    const double seconds = seconds_since(start);
    op_seconds.push_back(seconds);
    ++ops_per_input[k];
    if (!checks::bit_identical(d, d_ref[k]) || !checks::bit_identical(y, y_ref[k])) {
      ++failed;
    }
  }
  const double peak_rss = peak_rss_mb();
  const auto ops = static_cast<std::int64_t>(op_seconds.size());
  const double model_ms_per_op = 1e3 * (stream.now() - model_start) / static_cast<double>(ops);
  if (args.trace) {
    record_device_counts(dev.fault_plan()->stats(), ops, layers);
    dev.set_fault_plan(nullptr);
  }

  // ---- checks of each input's output against dense double sums and
  // the adjoint identity; every op on a failing input fails ----
  util::Rng rng(derive_seed(args.seed, 2));
  for (int k = 0; k < kInputs; ++k) {
    const double bound_f = checks::apply_error_bound(op, config, false, m[k], d_ref[k]);
    const double bound_a = checks::apply_error_bound(op, config, true, d_ref[k], y_ref[k]);
    const auto steps = sampled_steps(rng, nt);
    std::vector<std::vector<double>> ref_f, ref_a;
    for (index_t t : steps) {
      ref_f.push_back(checks::dense_forward_step(dims, col, m[k], t));
      ref_a.push_back(checks::dense_adjoint_step(dims, col, d_ref[k], t));
    }
    const bool ok =
        checks::sampled_steps_match(d_ref[k], nd, steps, ref_f, bound_f) &&
        checks::sampled_steps_match(y_ref[k], nm, steps, ref_a, bound_a) &&
        checks::adjoint_identity_holds(m[k], d_ref[k], d_ref[k], y_ref[k],
                                       bound_f, bound_a);
    if (!ok) failed += ops_per_input[k];
  }

  Outcome out;
  out.attempted = ops;
  out.failed = std::min(failed, ops);
  out.correct = out.failed == 0;
  if (!args.trace) {
    add_end_to_end(out, setup_s, op_seconds, median_round_rate(op_seconds), peak_rss);
    return out;
  }
  layers.trace_op_p50_ms = 1e3 * median(op_seconds);
  layers.device_model_ms_per_op = model_ms_per_op;
  layers.device_launch_us = probe_launch_us();
  layers.util_parallel_for_us = probe_parallel_for_us();
  count_reconciliation(probe_pipeline(dev, op, config, 21, args.seed, layers), out);
  layers.device_pool_speedup = probe_pool_speedup(spec, op, config, 3, args.seed);
  probe_inverse_layer(args.seed, layers, out);
  probe_serve_layer(args.seed, layers, out);
  out.correct = out.failed == 0;
  layers.emit(out);
  return out;
}

}  // namespace perfbench

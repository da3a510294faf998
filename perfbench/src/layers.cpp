#include "layers.hpp"

#include <algorithm>
#include <complex>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "blas/sbgemv.hpp"
#include "core/matvec_plan.hpp"
#include "core/synthetic.hpp"
#include "device/device_vector.hpp"
#include "fft/plan.hpp"
#include "precision/convert.hpp"
#include "trace.hpp"
#include "util/aligned_buffer.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace fftmv;

namespace {

double ms(Clock::time_point a, Clock::time_point b) {
  return 1e3 * seconds_between(a, b);
}

template <class Fn>
double time_ms(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return ms(t0, Clock::now());
}

template <class Fn>
void dispatch_precision(precision::Precision p, Fn&& fn) {
  if (p == precision::Precision::kDouble) {
    fn(double{});
  } else {
    fn(float{});
  }
}

/// Phase-2 forward FFT input: padded real sequences with data in the
/// first n_t samples of each.
template <class R>
device::device_vector<R> padded_input(device::Device& dev, index_t batch,
                                      index_t nt, index_t L,
                                      std::uint64_t seed) {
  device::device_vector<R> v(dev, batch * L);
  util::Rng rng(seed);
  for (index_t b = 0; b < batch; ++b) {
    for (index_t t = 0; t < L; ++t) {
      v.data()[b * L + t] = t < nt ? static_cast<R>(rng.uniform(-1.0, 1.0)) : R{};
    }
  }
  return v;
}

template <class C>
device::device_vector<C> complex_input(device::Device& dev, index_t n,
                                       std::uint64_t seed) {
  using R = typename C::value_type;
  device::device_vector<C> v(dev, n);
  util::Rng rng(seed);
  for (index_t i = 0; i < n; ++i) {
    v.data()[i] = C(static_cast<R>(rng.uniform(-1.0, 1.0)),
                    static_cast<R>(rng.uniform(-1.0, 1.0)));
  }
  return v;
}

/// A prepared call into one layer: inputs built, warmed once, and
/// timed per call() under a span of its own name.
class Probe {
 public:
  Probe(const char* name, std::function<void()> fn)
      : name_(name), fn_(std::move(fn)) {
    fn_();  // warm: plan scratch, first-touch pages
  }
  void call() {
    Scope s(name_);
    ms_.push_back(time_ms(fn_));
  }
  double median_ms() const { return median(ms_); }
  const std::vector<double>& samples_ms() const { return ms_; }

 private:
  const char* name_;
  std::function<void()> fn_;
  std::vector<double> ms_;
};

/// Phase-2 (forward) or phase-4 (inverse) batched real FFT of `batch`
/// sequences; the buffers are owned by the returned probe.
template <class R>
Probe fft_probe(device::Device& dev, device::Stream& stream, index_t batch,
                const core::LocalDims& dims, bool forward, std::uint64_t seed) {
  using C = std::complex<R>;
  const index_t nt = dims.n_t(), L = dims.padded_length();
  const index_t nf = dims.num_frequencies();
  auto plan = std::make_shared<fft::BatchedRealFft<R>>(L, batch);
  auto in = std::make_shared<device::device_vector<R>>(
      padded_input<R>(dev, batch, nt, L, seed));
  auto spec = std::make_shared<device::device_vector<C>>(dev, batch * nf);
  auto back = std::make_shared<device::device_vector<R>>(dev, batch * L);
  plan->forward_on(stream, in->data(), L, spec->data(), nf);
  if (forward) {
    return Probe("fft.forward", [=, &stream] {
      plan->forward_on(stream, in->data(), L, spec->data(), nf);
    });
  }
  return Probe("fft.inverse", [=, &stream] {
    plan->inverse_on(stream, spec->data(), nf, back->data(), L);
  });
}

/// One phase-3 SBGEMV in the given orientation against the operator's
/// spectrum in precision C.  `bytes` receives the computed bytes of a
/// call: the matrix once plus both vectors.
template <class C>
Probe sbgemv_probe(device::Device& dev, device::Stream& stream,
                   const core::BlockToeplitzOperator& op, bool adjoint,
                   std::uint64_t seed, double& bytes) {
  const core::LocalDims& dims = op.dims();
  const index_t nd = dims.n_d_local, nm = dims.n_m_local;
  const index_t nf = dims.num_frequencies();
  const index_t x_len = adjoint ? nd : nm;
  const index_t y_len = adjoint ? nm : nd;
  auto x = std::make_shared<device::device_vector<C>>(
      complex_input<C>(dev, nf * x_len, seed));
  auto y = std::make_shared<device::device_vector<C>>(dev, nf * y_len);
  blas::SbgemvArgs<C> args;
  args.op = adjoint ? blas::Op::C : blas::Op::N;
  args.m = nd;
  args.n = nm;
  args.alpha = C(1);
  if constexpr (std::is_same_v<C, cdouble>) {
    args.a = op.spectrum_d();
  } else {
    args.a = op.spectrum_f(stream);
  }
  args.lda = nd;
  args.stride_a = nd * nm;
  args.x = x->data();
  args.stride_x = x_len;
  args.beta = C(0);
  args.y = y->data();
  args.stride_y = y_len;
  args.batch = nf;
  bytes = static_cast<double>(nf) *
          static_cast<double>(nd * nm + x_len + y_len) * sizeof(C);
  // x and y are captured so the buffers args points into outlive the probe.
  return Probe(adjoint ? "blas.sbgemv_adjoint" : "blas.sbgemv",
               [x, y, args, &stream] { blas::sbgemv(stream, args); });
}

}  // namespace

void LayerReport::emit(Outcome& out) const {
  const struct {
    const char* name;
    double value;
    const char* unit;
  } rows[] = {
      {"util.parallel_for_us", util_parallel_for_us, "us"},
      {"device.launch_us", device_launch_us, "us"},
      {"device.launches_per_op", device_launches_per_op, "count"},
      {"device.allocs_per_op", device_allocs_per_op, "count"},
      {"device.pool_speedup", device_pool_speedup, "x"},
      {"device.copy_gbps", device_copy_gbps, "GB/s"},
      {"device.model_ms_per_op", device_model_ms_per_op, "ms"},
      {"precision.pad_ms", precision_pad_ms, "ms"},
      {"fft.fwd_ms", fft_fwd_ms, "ms"},
      {"fft.inv_ms", fft_inv_ms, "ms"},
      {"blas.sbgemv_ms", blas_sbgemv_ms, "ms"},
      {"blas.sbgemv_adj_ms", blas_sbgemv_adj_ms, "ms"},
      {"blas.sbgemv_gbps", blas_sbgemv_gbps, "GB/s"},
      {"core.fwd_ms", core_fwd_ms, "ms"},
      {"core.adj_ms", core_adj_ms, "ms"},
      {"core.glue_ms", core_glue_ms, "ms"},
      {"core.op_setup_s", core_op_setup_s, "s"},
      {"core.spectrum_f_s", core_spectrum_f_s, "s"},
      {"inverse.gram_s", inverse_gram_s, "s"},
      {"inverse.greedy_s", inverse_greedy_s, "s"},
      {"inverse.prior_ms", inverse_prior_ms, "ms"},
      {"inverse.matvecs", inverse_matvecs, "count"},
      {"serve.submit_us", serve_submit_us, "us"},
      {"serve.queue_ms", serve_queue_ms, "ms"},
      {"serve.exec_ms", serve_exec_ms, "ms"},
      {"serve.mean_batch", serve_mean_batch, "count"},
      {"serve.plan_cache_hit_rate", serve_plan_cache_hit_rate, "ratio"},
      {"serve.add_tenant_s", serve_add_tenant_s, "s"},
      {"comm.model_ms_per_batch", comm_model_ms_per_batch, "ms"},
      {"trace.op_p50_ms", trace_op_p50_ms, "ms"},
  };
  for (const auto& row : rows) {
    if (std::isnan(row.value)) {
      throw std::logic_error(std::string("per-layer metric not measured: ") +
                             row.name);
    }
    out.add(row.name, row.value, row.unit);
  }
}

double probe_launch_us() {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const device::LaunchGeometry geom{.grid_x = 64, .grid_y = 1, .grid_z = 1,
                                    .block_threads = 64};
  const device::KernelFootprint fp{};
  constexpr int kBatch = 500;
  std::vector<double> per_launch;
  for (int rep = 0; rep < 21; ++rep) {
    Scope s("device.launch");
    const auto t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) {
      stream.launch(geom, fp, [](index_t, index_t, index_t) {});
    }
    per_launch.push_back(1e6 * seconds_since(t0) / kBatch);
  }
  return median(per_launch);
}

double probe_parallel_for_us() {
  util::ThreadPool& pool = util::ThreadPool::global();
  const index_t count = static_cast<index_t>(pool.size()) * 4;
  constexpr int kBatch = 500;
  std::vector<double> per_call;
  for (int rep = 0; rep < 21; ++rep) {
    Scope s("util.parallel_for");
    const auto t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) {
      pool.parallel_for_chunks(count, [](index_t, index_t) {});
    }
    per_call.push_back(1e6 * seconds_since(t0) / kBatch);
  }
  return median(per_call);
}

double probe_copy_gbps() {
  const std::size_t bytes = static_cast<std::size_t>(4 * llc_bytes());
  const index_t n = static_cast<index_t>(bytes / sizeof(double));
  util::AlignedBuffer<double> src(n), dst(n);
  util::ThreadPool& pool = util::ThreadPool::global();
  const index_t chunks = static_cast<index_t>(pool.size()) * 8;
  const index_t per = (n + chunks - 1) / chunks;
  const auto copy = [&](auto fill) {
    pool.parallel_for_chunks(chunks, [&](index_t b, index_t e) {
      for (index_t c = b; c < e; ++c) {
        const index_t lo = c * per, hi = std::min(n, lo + per);
        if (lo >= hi) continue;
        if (fill) {
          std::fill(src.data() + lo, src.data() + hi, 1.0);
          std::fill(dst.data() + lo, dst.data() + hi, 0.0);
        } else {
          std::memcpy(dst.data() + lo, src.data() + lo,
                      static_cast<std::size_t>(hi - lo) * sizeof(double));
        }
      }
    });
  };
  copy(true);  // fault the pages in
  std::vector<double> gbps;
  for (int rep = 0; rep < 5; ++rep) {
    Scope s("device.copy");
    const auto t0 = Clock::now();
    copy(false);
    gbps.push_back(2.0 * static_cast<double>(bytes) / seconds_since(t0) / 1e9);
  }
  return median(gbps);
}

bool probe_pipeline(device::Device& dev, const core::BlockToeplitzOperator& op,
                    const precision::PrecisionConfig& config, int reps,
                    std::uint64_t seed, LayerReport& report) {
  using precision::kPhaseFft;
  using precision::kPhaseIfft;
  using precision::kPhaseSbgemv;
  const core::LocalDims& dims = op.dims();
  const index_t nt = dims.n_t(), L = dims.padded_length();
  const index_t nd = dims.n_d_local, nm = dims.n_m_local;
  device::Stream stream(dev);

  // Whole applies: F on m, then F* on F m.
  core::FftMatvecPlan plan(dev, stream, dims);
  const auto m = core::make_input_vector(nt * nm, derive_seed(seed, 101));
  std::vector<double> d(static_cast<std::size_t>(nt * nd));
  std::vector<double> back(m.size());
  plan.forward(op, m, d, config);
  Probe fwd("core.forward", [&] { plan.forward(op, m, d, config); });
  Probe adj("core.adjoint", [&] { plan.adjoint(op, d, back, config); });

  // Phase 1 of F: fused transpose + zero-pad + cast.
  std::optional<Probe> pad;
  dispatch_precision(config.phase(kPhaseFft), [&](auto tag) {
    using S = decltype(tag);
    auto buf = std::make_shared<device::device_vector<S>>(dev, nm * L);
    pad.emplace("precision.transpose_pad_cast", [&, buf] {
      precision::transpose_pad_cast<S>(stream, m.data(), buf->data(), nt, nm, L);
    });
  });

  // Phase 2 of F (n_m sequences) and of F* (n_d sequences); phase 4
  // of F (n_d sequences) and of F* (n_m sequences).
  std::vector<Probe> ffts;
  dispatch_precision(config.phase(kPhaseFft), [&](auto tag) {
    using R = decltype(tag);
    ffts.push_back(fft_probe<R>(dev, stream, nm, dims, true, derive_seed(seed, 102)));
    ffts.push_back(fft_probe<R>(dev, stream, nd, dims, true, derive_seed(seed, 103)));
  });
  dispatch_precision(config.phase(kPhaseIfft), [&](auto tag) {
    using R = decltype(tag);
    ffts.push_back(fft_probe<R>(dev, stream, nd, dims, false, derive_seed(seed, 104)));
    ffts.push_back(fft_probe<R>(dev, stream, nm, dims, false, derive_seed(seed, 105)));
  });

  std::vector<Probe> gemvs;
  double gemv_bytes = 0.0, adj_bytes = 0.0;
  dispatch_precision(config.phase(kPhaseSbgemv), [&](auto tag) {
    using C = std::complex<decltype(tag)>;
    gemvs.push_back(sbgemv_probe<C>(dev, stream, op, false, derive_seed(seed, 106),
                                    gemv_bytes));
    gemvs.push_back(sbgemv_probe<C>(dev, stream, op, true, derive_seed(seed, 107),
                                    adj_bytes));
  });

  // Interleave the calls, so machine noise lands on every probe alike
  // and the isolated parts stay comparable with the whole applies.
  for (int r = 0; r < reps; ++r) {
    fwd.call();
    adj.call();
    pad->call();
    for (Probe& p : ffts) p.call();
    for (Probe& p : gemvs) p.call();
  }

  report.core_fwd_ms = fwd.median_ms();
  report.core_adj_ms = adj.median_ms();
  report.precision_pad_ms = pad->median_ms();
  // One FFT per metric, at F's shapes: phase 2 on N_m sequences,
  // phase 4 on N_d.  F*'s two FFTs only enter the glue below.
  report.fft_fwd_ms = ffts[0].median_ms();
  report.fft_inv_ms = ffts[2].median_ms();
  report.blas_sbgemv_ms = gemvs[0].median_ms();
  report.blas_sbgemv_adj_ms = gemvs[1].median_ms();
  report.blas_sbgemv_gbps = gemv_bytes / (report.blas_sbgemv_ms * 1e-3) / 1e9;
  // Glue per repetition (both applies minus their isolated fft and
  // blas parts, all from the same repetition), then the median: paired
  // differences cancel drift between repetitions.
  std::vector<double> glue;
  for (int r = 0; r < reps; ++r) {
    const auto at = [r](const Probe& p) {
      return p.samples_ms()[static_cast<std::size_t>(r)];
    };
    double g = at(fwd) + at(adj);
    for (const Probe& p : ffts) g -= at(p);
    for (const Probe& p : gemvs) g -= at(p);
    glue.push_back(g);
  }
  report.core_glue_ms = median(glue);
  return report.core_glue_ms >=
         -kReconcileNoise * (report.core_fwd_ms + report.core_adj_ms);
}

double probe_pool_speedup(const device::DeviceSpec& spec,
                          const core::BlockToeplitzOperator& op,
                          const precision::PrecisionConfig& config, int reps,
                          std::uint64_t seed) {
  const core::LocalDims& dims = op.dims();
  const auto m =
      core::make_input_vector(dims.n_t() * dims.n_m_local, derive_seed(seed, 111));
  std::vector<double> d(static_cast<std::size_t>(dims.n_t() * dims.n_d_local));
  const auto apply_ms = [&](util::ThreadPool* pool, const char* name) {
    device::Device dev(spec, pool);
    device::Stream stream(dev);
    core::FftMatvecPlan plan(dev, stream, dims);
    plan.forward(op, m, d, config);  // warm
    std::vector<double> t;
    for (int r = 0; r < reps; ++r) {
      Scope s(name);
      t.push_back(time_ms([&] { plan.forward(op, m, d, config); }));
    }
    return median(t);
  };
  util::ThreadPool single(1);
  const double serial = apply_ms(&single, "device.apply_1_worker");
  const double pooled = apply_ms(&util::ThreadPool::global(), "device.apply_pool");
  return serial / pooled;
}

void record_device_counts(const device::FaultStats& stats, std::int64_t ops,
                          LayerReport& report) {
  const double n = static_cast<double>(std::max<std::int64_t>(ops, 1));
  report.device_launches_per_op = static_cast<double>(stats.kernel_launches) / n;
  report.device_allocs_per_op = static_cast<double>(stats.allocs) / n;
}

std::shared_ptr<device::FaultPlan> counting_fault_plan() {
  return std::make_shared<device::FaultPlan>(device::FaultPlanOptions{});
}

}  // namespace perfbench

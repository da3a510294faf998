// The inverse layer's probe: one greedy sensor-placement design (the
// paper's outer loop, Remark 1), run and checked inside every traced
// run.  The data-space Gram matrix H = G_n^{-1/2} F G_pr F* G_n^{-1/2}
// is assembled through inverse::assemble_data_space_gram (2 N_d N_t
// single-RHS applies), then greedy EIG maximisation picks the
// sensors.  The operator is small and N_t a power of two, so the FFTs
// bypass Bluestein; all phases run in double (ddddd).
#include <algorithm>
#include <memory>
#include <vector>

#include "checks.hpp"
#include "core/block_toeplitz.hpp"
#include "core/dense_reference.hpp"
#include "core/matvec_plan.hpp"
#include "core/synthetic.hpp"
#include "device/device_spec.hpp"
#include "inverse/bayes.hpp"
#include "inverse/oed.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace fftmv;

namespace {

constexpr core::ProblemDims kDims{128, 4, 64};
/// Sensors chosen per design (of N_d candidates).
constexpr index_t kBudget = 3;
/// Gram columns checked against the dense chain.
constexpr int kSampledColumns = 2;
/// Relative slack on "gains are non-increasing": rounding in the
/// log-determinants, far below any real violation.
constexpr double kGainSlack = 1e-9;

/// Operator, plan, prior and noise of one design, all from one seed.
struct OedSystem {
  core::LocalDims dims = core::LocalDims::single_rank(kDims);
  std::vector<double> col;
  device::Device dev{device::make_mi300x()};
  device::Stream stream{dev};
  std::unique_ptr<core::BlockToeplitzOperator> op;
  std::unique_ptr<core::FftMatvecPlan> plan;
  inverse::PriorModel prior;
  inverse::NoiseModel noise;
  precision::PrecisionConfig config;  // ddddd

  explicit OedSystem(std::uint64_t seed) {
    col = core::make_first_block_col(dims, derive_seed(seed, 1));
    op = std::make_unique<core::BlockToeplitzOperator>(dev, stream, dims, col);
    plan = std::make_unique<core::FftMatvecPlan>(dev, stream, dims);
    util::Rng rng(derive_seed(seed, 3));
    prior.n_m = kDims.n_m;
    prior.sigma = rng.uniform(0.5, 2.0);
    prior.alpha = rng.uniform(0.5, 4.0);
    noise.sigma = rng.uniform(5e-3, 5e-2);
    // Warm-up: one apply each way allocates the plan's buffers.
    std::vector<double> m(static_cast<std::size_t>(kDims.n_t * kDims.n_m), 1.0);
    std::vector<double> d(static_cast<std::size_t>(kDims.n_t * kDims.n_d));
    plan->forward(*op, m, d, config);
    plan->adjoint(*op, d, m, config);
  }

  /// Column j of H against the dense chain dense_adjoint -> prior ->
  /// dense_forward; `bound` receives the error-model bound used.
  bool check_column(const std::vector<double>& gram, index_t j,
                    double& bound) const {
    const index_t nt = kDims.n_t, nd = kDims.n_d, nm = kDims.n_m;
    const index_t n = nt * nd;
    const double w = 1.0 / noise.sigma;
    std::vector<double> e(static_cast<std::size_t>(n), 0.0);
    e[static_cast<std::size_t>(j)] = w;
    std::vector<double> m1(static_cast<std::size_t>(nt * nm));
    std::vector<double> m2(m1.size());
    std::vector<double> ref(static_cast<std::size_t>(n));
    core::dense_adjoint(dims, col, e, m1);
    prior.apply_covariance(nt, m1, m2);
    core::dense_forward(dims, col, m2, ref);
    for (double& v : ref) v *= w;
    // F(prior(F* e)): the two applies' bounds (the prior solve is
    // double and well conditioned).
    bound = checks::apply_error_bound(*op, config, true, e, m1) +
            checks::apply_error_bound(*op, config, false, m2, ref);
    return checks::gram_column_matches(gram, n, j, ref, bound);
  }

  /// Host time of one prior covariance apply on a parameter vector.
  double prior_ms(int reps) const {
    const index_t len = kDims.n_t * kDims.n_m;
    const auto x = core::make_input_vector(len, 7);
    std::vector<double> y(x.size());
    std::vector<double> t;
    for (int r = 0; r < reps; ++r) {
      Scope s("inverse.prior_apply_covariance");
      const auto t0 = Clock::now();
      prior.apply_covariance(kDims.n_t, x, y);
      t.push_back(1e3 * seconds_since(t0));
    }
    return median(t);
  }
};

}  // namespace

void probe_inverse_layer(std::uint64_t seed, LayerReport& report, Outcome& out) {
  OedSystem sys(seed);
  std::vector<double> gram;
  inverse::GreedyPlacementResult placement;
  index_t matvecs = 0;
  {
    Scope op_span("op", -1);
    auto t0 = Clock::now();
    {
      Scope s("inverse.assemble_data_space_gram");
      gram = inverse::assemble_data_space_gram(*sys.plan, *sys.op, sys.prior,
                                               sys.noise, sys.config, &matvecs);
    }
    report.inverse_gram_s = seconds_since(t0);
    t0 = Clock::now();
    {
      Scope s("inverse.greedy_sensor_placement");
      placement = inverse::greedy_sensor_placement(gram, kDims.n_d, kDims.n_t,
                                                   kBudget);
    }
    report.inverse_greedy_s = seconds_since(t0);
  }
  report.inverse_matvecs = static_cast<double>(matvecs);
  report.inverse_prior_ms = sys.prior_ms(51);

  // The design is one op.  The symmetry tolerance is the sampled
  // columns' chain bound: H = A^T A in exact arithmetic, so H - H^T is
  // rounding of the two applies alone.
  const index_t n = kDims.n_t * kDims.n_d;
  util::Rng rng(derive_seed(seed, 4));
  bool ok = checks::gains_monotone_submodular(placement.information_gain, kGainSlack);
  double bound = 0.0;
  for (int c = 0; c < kSampledColumns; ++c) {
    const auto j = static_cast<index_t>(rng.next_u64() % static_cast<std::uint64_t>(n));
    double column_bound = 0.0;
    ok = sys.check_column(gram, j, column_bound) && ok;
    bound = std::max(bound, column_bound);
  }
  ok = checks::gram_symmetric_positive(gram, n, 2.0 * bound) && ok;
  ++out.attempted;
  if (!ok) ++out.failed;
}

}  // namespace perfbench

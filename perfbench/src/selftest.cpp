// Self-test of the checks: each one must accept an unbroken output and
// reject a deliberately broken one — a flipped output element, two
// swapped request outputs, an asymmetric Gram matrix, a rising gain
// sequence.  A check that cannot fail would count every op as passed.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <vector>

#include "checks.hpp"
#include "core/block_toeplitz.hpp"
#include "core/dense_reference.hpp"
#include "core/matvec_plan.hpp"
#include "core/synthetic.hpp"
#include "device/device_spec.hpp"
#include "inverse/bayes.hpp"
#include "inverse/oed.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace fftmv;

namespace {

int failures = 0;

void expect(bool accepted, bool want, const char* what) {
  const bool pass = accepted == want;
  if (!pass) ++failures;
  std::cout << (pass ? "PASS " : "FAIL ") << what << ": "
            << (accepted ? "accepted" : "rejected") << "\n";
}

/// Index of the largest |a_i * b_i| (the element whose flip moves an
/// inner product most).
std::size_t heaviest(const std::vector<double>& a, const std::vector<double>& b) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < a.size(); ++i) {
    if (std::abs(a[i] * b[i]) > std::abs(a[best] * b[best])) best = i;
  }
  return best;
}

}  // namespace

int run_self_test() {
  const auto config = precision::PrecisionConfig::parse("dssdd");
  const core::ProblemDims shape{24, 3, 16};
  const auto dims = core::LocalDims::single_rank(shape);
  const index_t nt = shape.n_t, nm = shape.n_m, nd = shape.n_d;
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const auto col = core::make_first_block_col(dims, 11);
  const core::BlockToeplitzOperator op(dev, stream, dims, col);
  core::FftMatvecPlan plan(dev, stream, dims);

  // ---- flipped output element (paper_matvec's checks) ----
  const auto m = core::make_input_vector(nt * nm, 12);
  std::vector<double> d(static_cast<std::size_t>(nt * nd)), y(m.size());
  plan.forward(op, m, d, config);
  plan.adjoint(op, d, y, config);
  const double bound_f = checks::apply_error_bound(op, config, false, m, d);
  const double bound_a = checks::apply_error_bound(op, config, true, d, y);
  const std::vector<index_t> steps{0, nt / 2, nt - 1};
  std::vector<std::vector<double>> ref;
  for (index_t t : steps) ref.push_back(checks::dense_forward_step(dims, col, m, t));
  expect(checks::sampled_steps_match(d, nd, steps, ref, bound_f), true,
         "dense sampled steps, clean output");
  expect(checks::adjoint_identity_holds(m, d, d, y, bound_f, bound_a), true,
         "adjoint identity, clean outputs");
  {
    auto bad = d;
    // Negate the largest element of the last sampled step.
    const auto row = static_cast<std::size_t>(steps.back() * nd);
    const auto it = std::max_element(bad.begin() + static_cast<std::ptrdiff_t>(row),
                                     bad.begin() + static_cast<std::ptrdiff_t>(row + nd),
                                     [](double a, double b) { return std::abs(a) < std::abs(b); });
    *it = -*it;
    expect(checks::sampled_steps_match(bad, nd, steps, ref, bound_f), false,
           "dense sampled steps, flipped output element");
  }
  {
    auto bad = y;
    const std::size_t i = heaviest(m, y);
    bad[i] = -bad[i];
    expect(checks::adjoint_identity_holds(m, d, d, bad, bound_f, bound_a), false,
           "adjoint identity, flipped F* element");
  }
  {
    std::vector<double> again(d.size());
    plan.forward(op, m, again, config);
    expect(checks::bit_identical(again, d), true, "repeat apply, bit-identical");
    std::uint64_t bits = 0;
    std::memcpy(&bits, &again[5], sizeof(bits));
    bits ^= 1u;  // lowest mantissa bit
    std::memcpy(&again[5], &bits, sizeof(bits));
    expect(checks::bit_identical(again, d), false, "repeat apply, one bit flipped");
  }

  // ---- swapped request outputs (serve_closed's digest check) ----
  {
    const auto m2 = core::make_input_vector(nt * nm, 13);
    std::vector<double> d2(d.size());
    plan.forward(op, m2, d2, config);
    const std::vector<std::uint64_t> expected{checks::hash_bits(d), checks::hash_bits(d2)};
    const std::vector<std::uint64_t> clean{checks::hash_bits(d), checks::hash_bits(d2)};
    const std::vector<std::uint64_t> swapped{checks::hash_bits(d2), checks::hash_bits(d)};
    expect(checks::digest_mismatches(clean, expected) == 0, true,
           "request digests, outputs in order");
    expect(checks::digest_mismatches(swapped, expected) == 0, false,
           "request digests, two outputs swapped");
  }

  // ---- Gram matrix and greedy gains (the inverse probe's checks) ----
  {
    const core::ProblemDims oshape{16, 3, 8};
    const auto odims = core::LocalDims::single_rank(oshape);
    const auto ocol = core::make_first_block_col(odims, 14);
    const core::BlockToeplitzOperator oop(dev, stream, odims, ocol);
    core::FftMatvecPlan oplan(dev, stream, odims);
    inverse::PriorModel prior;
    prior.n_m = oshape.n_m;
    inverse::NoiseModel noise;
    noise.sigma = 0.05;
    const precision::PrecisionConfig ddddd;
    const auto gram =
        inverse::assemble_data_space_gram(oplan, oop, prior, noise, ddddd);
    const index_t n = oshape.n_t * oshape.n_d;
    const double bound = 1e-10;
    expect(checks::gram_symmetric_positive(gram, n, bound), true,
           "Gram symmetric, clean matrix");
    auto asym = gram;
    asym[static_cast<std::size_t>(1)] += 1e-3 * std::abs(gram[0]);
    expect(checks::gram_symmetric_positive(asym, n, bound), false,
           "Gram symmetric, asymmetric matrix");
    auto neg = gram;
    neg[0] = -neg[0];
    expect(checks::gram_symmetric_positive(neg, n, bound), false,
           "Gram symmetric, negative diagonal");

    // Column 0 through the dense chain.
    const double w = 1.0 / noise.sigma;
    std::vector<double> e(static_cast<std::size_t>(n), 0.0);
    e[0] = w;
    std::vector<double> m1(static_cast<std::size_t>(oshape.n_t * oshape.n_m)), m2(m1.size());
    std::vector<double> col0(static_cast<std::size_t>(n));
    core::dense_adjoint(odims, ocol, e, m1);
    prior.apply_covariance(oshape.n_t, m1, m2);
    core::dense_forward(odims, ocol, m2, col0);
    for (double& v : col0) v *= w;
    expect(checks::gram_column_matches(gram, n, 0, col0, bound), true,
           "Gram column vs dense chain, clean");
    expect(checks::gram_column_matches(asym, n, 1, col0, bound), false,
           "Gram column vs dense chain, wrong column");

    const auto placement =
        inverse::greedy_sensor_placement(gram, oshape.n_d, oshape.n_t, oshape.n_d);
    expect(checks::gains_monotone_submodular(placement.information_gain, 1e-9), true,
           "greedy gains, library placement");
    const std::vector<double> rising{1.0, 1.5, 2.2};
    expect(checks::gains_monotone_submodular(rising, 1e-9), false,
           "greedy gains, rising sequence");
    const std::vector<double> falling_total{1.0, 0.9};
    expect(checks::gains_monotone_submodular(falling_total, 1e-9), false,
           "greedy gains, negative gain");
  }

  std::cout << (failures == 0 ? "self-test passed" : "self-test FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench

#include "checks.hpp"

#include "core/error_model.hpp"

#include <cmath>
#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace perfbench::checks {

namespace {

double dot(std::span<const double> a, std::span<const double> b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace

double norm2(std::span<const double> v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

double apply_error_bound(const fftmv::core::BlockToeplitzOperator& op,
                         const fftmv::precision::PrecisionConfig& config,
                         bool adjoint, std::span<const double> in,
                         std::span<const double> out) {
  fftmv::core::ErrorModelInputs model;
  model.dims = op.dims();
  model.adjoint = adjoint;
  model.amplification = op.spectrum_norm() * norm2(in) / std::max(1e-300, norm2(out));
  return fftmv::core::error_bound(config, model);
}

std::uint64_t hash_bits(std::span<const double> v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (double x : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    h ^= bits;
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool bit_identical(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<double> dense_forward_step(const fftmv::core::LocalDims& dims,
                                       std::span<const double> first_block_col,
                                       std::span<const double> m, index_t t) {
  const index_t nd = dims.n_d_local;
  const index_t nm = dims.n_m_local;
  if (t < 0 || t >= dims.n_t()) throw std::out_of_range("dense_forward_step");
  std::vector<double> out(static_cast<std::size_t>(nd), 0.0);
  for (index_t j = 0; j <= t; ++j) {
    const double* block = first_block_col.data() + (t - j) * nd * nm;
    const double* mj = m.data() + j * nm;
    for (index_t s = 0; s < nd; ++s) {
      const double* row = block + s * nm;
      double acc = 0.0;
      for (index_t k = 0; k < nm; ++k) acc += row[k] * mj[k];
      out[static_cast<std::size_t>(s)] += acc;
    }
  }
  return out;
}

std::vector<double> dense_adjoint_step(const fftmv::core::LocalDims& dims,
                                       std::span<const double> first_block_col,
                                       std::span<const double> d, index_t j) {
  const index_t nt = dims.n_t();
  const index_t nd = dims.n_d_local;
  const index_t nm = dims.n_m_local;
  if (j < 0 || j >= nt) throw std::out_of_range("dense_adjoint_step");
  std::vector<double> out(static_cast<std::size_t>(nm), 0.0);
  for (index_t i = j; i < nt; ++i) {
    const double* block = first_block_col.data() + (i - j) * nd * nm;
    const double* di = d.data() + i * nd;
    for (index_t s = 0; s < nd; ++s) {
      const double ds = di[s];
      const double* row = block + s * nm;
      for (index_t k = 0; k < nm; ++k) out[static_cast<std::size_t>(k)] += row[k] * ds;
    }
  }
  return out;
}

bool sampled_steps_match(std::span<const double> out, index_t width,
                         const std::vector<index_t>& steps,
                         const std::vector<std::vector<double>>& refs,
                         double bound) {
  if (steps.size() != refs.size()) return false;
  double err2 = 0.0;
  for (std::size_t k = 0; k < steps.size(); ++k) {
    const auto& ref = refs[k];
    if (static_cast<index_t>(ref.size()) != width) return false;
    const double* row = out.data() + steps[k] * width;
    for (index_t i = 0; i < width; ++i) {
      const double e = row[i] - ref[static_cast<std::size_t>(i)];
      err2 += e * e;
    }
  }
  const double err = std::sqrt(err2);
  return std::isfinite(err) && err <= bound * norm2(out);
}

bool adjoint_identity_holds(std::span<const double> m,
                            std::span<const double> fm,
                            std::span<const double> d,
                            std::span<const double> fstar_d, double bound_f,
                            double bound_a) {
  if (fm.size() != d.size() || m.size() != fstar_d.size()) return false;
  const double lhs = dot(fm, d);
  const double rhs = dot(m, fstar_d);
  const double tol = bound_f * norm2(fm) * norm2(d) +
                     bound_a * norm2(m) * norm2(fstar_d);
  return std::isfinite(lhs) && std::isfinite(rhs) && std::abs(lhs - rhs) <= tol;
}

bool gram_symmetric_positive(std::span<const double> gram, index_t n,
                             double bound) {
  if (static_cast<index_t>(gram.size()) != n * n) return false;
  double asym2 = 0.0;
  double norm2_g = 0.0;
  for (index_t i = 0; i < n; ++i) {
    if (!(gram[static_cast<std::size_t>(i * n + i)] > 0.0)) return false;
    for (index_t j = 0; j < n; ++j) {
      const double g = gram[static_cast<std::size_t>(i * n + j)];
      const double e = g - gram[static_cast<std::size_t>(j * n + i)];
      asym2 += e * e;
      norm2_g += g * g;
    }
  }
  return std::sqrt(asym2) <= bound * std::sqrt(norm2_g);
}

bool gram_column_matches(std::span<const double> gram, index_t n, index_t j,
                         std::span<const double> ref, double bound) {
  if (static_cast<index_t>(gram.size()) != n * n ||
      static_cast<index_t>(ref.size()) != n) {
    return false;
  }
  double err2 = 0.0;
  for (index_t i = 0; i < n; ++i) {
    const double e = gram[static_cast<std::size_t>(i * n + j)] -
                     ref[static_cast<std::size_t>(i)];
    err2 += e * e;
  }
  const double err = std::sqrt(err2);
  return std::isfinite(err) && err <= bound * norm2(ref);
}

bool gains_monotone_submodular(std::span<const double> cumulative_gain,
                               double slack) {
  if (cumulative_gain.empty()) return false;
  const double first = cumulative_gain[0];
  if (!(first > 0.0)) return false;
  double previous = first;
  for (std::size_t k = 1; k < cumulative_gain.size(); ++k) {
    const double gain = cumulative_gain[k] - cumulative_gain[k - 1];
    if (!(gain > 0.0) || gain > previous + slack * first) return false;
    previous = gain;
  }
  return true;
}

std::int64_t digest_mismatches(std::span<const std::uint64_t> observed,
                               std::span<const std::uint64_t> expected) {
  if (observed.size() != expected.size()) {
    return static_cast<std::int64_t>(std::max(observed.size(), expected.size()));
  }
  std::int64_t bad = 0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    if (observed[i] != expected[i]) ++bad;
  }
  return bad;
}

}  // namespace perfbench::checks

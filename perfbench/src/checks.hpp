// Output checks, computed apart from the library: dense double sums
// from the first block column, the adjoint identity, Gram-matrix and
// greedy-gain properties, and bit-identity.  Each returns false when
// the property fails; the workloads count an op failed on false, and
// the self-test feeds each one a broken output to show it can fail.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/block_toeplitz.hpp"
#include "core/problem.hpp"
#include "precision/precision.hpp"

namespace perfbench::checks {

using fftmv::index_t;

double norm2(std::span<const double> v);

/// Error-model bound (Eq. 6, core::error_bound) on ||out - exact|| /
/// ||out|| for one apply of `config` that mapped `in` to `out`, with
/// the observed normwise amplification ||F_hat||_F ||in|| / ||out||.
double apply_error_bound(const fftmv::core::BlockToeplitzOperator& op,
                         const fftmv::precision::PrecisionConfig& config,
                         bool adjoint, std::span<const double> in,
                         std::span<const double> out);

/// FNV-1a over the bit patterns of `v`, one 64-bit word per element
/// (bit-identity by digest).  Each step is a bijection of the running
/// hash and of the word, so a change to any one element always
/// changes the digest.
std::uint64_t hash_bits(std::span<const double> v);

bool bit_identical(std::span<const double> a, std::span<const double> b);

/// Dense double sum for one output time step of d = F m:
/// d_t = sum_{j <= t} F_{t-j} m_j (n_d values).  `first_block_col`
/// is time-outer (n_t, n_d, n_m); `m` is TOSI.
std::vector<double> dense_forward_step(const fftmv::core::LocalDims& dims,
                                       std::span<const double> first_block_col,
                                       std::span<const double> m, index_t t);

/// Dense double sum for one output time step of m = F* d:
/// m_j = sum_{i >= j} F_{i-j}^T d_i (n_m values).
std::vector<double> dense_adjoint_step(const fftmv::core::LocalDims& dims,
                                       std::span<const double> first_block_col,
                                       std::span<const double> d, index_t j);

/// The sampled time steps of the TOSI output `out` (`width` values per
/// step) match their dense references `refs` in the normwise sense of
/// the error model: ||out_S - ref_S|| <= bound * ||out||.
bool sampled_steps_match(std::span<const double> out, index_t width,
                         const std::vector<index_t>& steps,
                         const std::vector<std::vector<double>>& refs,
                         double bound);

/// <F m, d> == <m, F* d> up to the two applies' error bounds:
/// |<fm, d> - <m, fstar_d>| <= bound_f ||fm|| ||d|| + bound_a ||m|| ||fstar_d||.
bool adjoint_identity_holds(std::span<const double> m,
                            std::span<const double> fm,
                            std::span<const double> d,
                            std::span<const double> fstar_d, double bound_f,
                            double bound_a);

/// The n x n row-major Gram matrix is symmetric in norm,
/// ||G - G^T||_F <= bound ||G||_F, and its diagonal is positive.
bool gram_symmetric_positive(std::span<const double> gram, index_t n,
                             double bound);

/// Column j of the Gram matrix matches `ref` (n values):
/// ||G(:, j) - ref|| <= bound ||ref||.
bool gram_column_matches(std::span<const double> gram, index_t n, index_t j,
                         std::span<const double> ref, double bound);

/// Greedy EIG gains are positive and non-increasing: the marginal
/// gains of the cumulative sequence satisfy g_1 > 0 and
/// 0 < g_{k+1} <= g_k + slack * g_1 (log det(I + H_S) is monotone and
/// submodular, so greedy gains can only shrink).
bool gains_monotone_submodular(std::span<const double> cumulative_gain,
                               double slack);

/// Number of positions where an observed output digest differs from
/// the digest of the reference computed for the same request.
std::int64_t digest_mismatches(std::span<const std::uint64_t> observed,
                               std::span<const std::uint64_t> expected);

}  // namespace perfbench::checks

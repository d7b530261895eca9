// Principal components analysis with a cyclic Jacobi eigensolver.
//
// PCA-SIFT (Ke & Sukthankar 2004, the paper's ref [7]) projects normalized
// gradient patches onto a low-dimensional eigenspace. We implement PCA from
// scratch: covariance accumulation and symmetric eigendecomposition via
// cyclic Jacobi rotations (robust and dependency-free; dimensionality here
// is a few hundred, well within Jacobi's comfort zone).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace fast::vision {

/// A trained PCA basis: projection = components * (x - mean).
struct PcaModel {
  std::vector<float> mean;                 ///< input-space mean, dim = d_in
  std::vector<std::vector<float>> components;  ///< d_out rows of length d_in
  std::vector<float> eigenvalues;          ///< variance along each component

  std::size_t input_dim() const noexcept { return mean.size(); }
  std::size_t output_dim() const noexcept { return components.size(); }

  /// Projects an input vector onto the PCA basis.
  std::vector<float> project(std::span<const float> x) const;

  /// Reconstructs an approximation of x from its projection.
  std::vector<float> reconstruct(std::span<const float> projected) const;
};

/// Eigendecomposition of a symmetric matrix (row-major, n x n) by cyclic
/// Jacobi. Returns eigenvalues (descending) and matching unit eigenvectors
/// (rows of `eigenvectors`). `max_sweeps` bounds the iteration count.
/// Large matrices are solved on up to four threads; the result is
/// bit-identical to the single-threaded cyclic loop.
void jacobi_eigen_symmetric(std::vector<double> matrix, std::size_t n,
                            std::vector<double>& eigenvalues,
                            std::vector<std::vector<double>>& eigenvectors,
                            int max_sweeps = 64);

namespace detail {
/// jacobi_eigen_symmetric on exactly `workers` (>= 1) threads. The public
/// overload picks the count; this one lets the parity tests pin that the
/// count never changes a bit of the result.
void jacobi_eigen_symmetric(std::vector<double> matrix, std::size_t n,
                            std::vector<double>& eigenvalues,
                            std::vector<std::vector<double>>& eigenvectors,
                            int max_sweeps, unsigned workers);
}  // namespace detail

/// Sample covariance (divisor n - 1) of `samples` about `mean`, as a
/// row-major d x d matrix; the input train_pca hands to the eigensolver.
std::vector<double> covariance_matrix(
    std::span<const std::vector<float>> samples, std::span<const float> mean);

/// Trains a PCA model on `samples` (each of equal dimension), keeping the
/// top `output_dim` components. Requires at least two samples.
PcaModel train_pca(std::span<const std::vector<float>> samples,
                   std::size_t output_dim);

}  // namespace fast::vision

// Separable Gaussian filtering — the workhorse of the DoG scale space.
#pragma once

#include <vector>

#include "img/image.hpp"

namespace fast::vision {

/// Builds a normalized 1-D Gaussian kernel with standard deviation `sigma`.
/// Radius is ceil(3*sigma) (99.7% of mass), minimum 1.
std::vector<float> gaussian_kernel(double sigma);

/// Buffers gaussian_blur reuses between calls; build_pyramid keeps one for
/// all of its levels.
struct BlurScratch {
  std::vector<float> padded;      ///< one source row, borders replicated
  std::vector<float> horizontal;  ///< the horizontal pass's output
};

/// Convolves `src` with a separable Gaussian of the given sigma
/// (horizontal then vertical pass, border replication). Each output pixel
/// sums its taps in double, in kernel order.
img::Image gaussian_blur(const img::Image& src, double sigma);
img::Image gaussian_blur(const img::Image& src, double sigma,
                         BlurScratch& scratch);

/// Pixel-wise difference a - b of two equally sized images.
img::Image subtract(const img::Image& a, const img::Image& b);

}  // namespace fast::vision

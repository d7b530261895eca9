#include "vision/gaussian.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/isa_clones.hpp"

namespace fast::vision {

std::vector<float> gaussian_kernel(double sigma) {
  FAST_CHECK(sigma > 0);
  const int radius = std::max(1, static_cast<int>(std::ceil(3.0 * sigma)));
  std::vector<float> kernel(static_cast<std::size_t>(2 * radius + 1));
  const double inv_two_sigma2 = 1.0 / (2.0 * sigma * sigma);
  double sum = 0.0;
  for (int i = -radius; i <= radius; ++i) {
    const double v = std::exp(-static_cast<double>(i * i) * inv_two_sigma2);
    kernel[static_cast<std::size_t>(i + radius)] = static_cast<float>(v);
    sum += v;
  }
  const auto inv_sum = static_cast<float>(1.0 / sum);
  for (float& k : kernel) k *= inv_sum;
  return kernel;
}

namespace {

/// Writes one output row: out[x] = the sum over k of rows[k][x] * taps[k],
/// added in kernel order into a zeroed double. rows[k] + x is the source
/// pixel tap k reads for output x. Sixteen outputs at a time keep their
/// sums in registers across all taps.
///
/// Runs as AVX2 and baseline clones (util/isa_clones.hpp), which compute
/// the same bits and would even under FMA contraction: a float pixel times
/// a float tap is exact in double, so a fused multiply-add rounds each sum
/// once, like the separate multiply and add.
FAST_AVX2_CLONES
void blur_row(const float* const* rows, const double* taps, std::size_t ntaps,
              std::size_t n, float* __restrict out) {
  constexpr std::size_t kBlock = 16;
  std::size_t x = 0;
  for (; x + kBlock <= n; x += kBlock) {
    double sums[kBlock] = {};
    for (std::size_t k = 0; k < ntaps; ++k) {
      const float* src = rows[k] + x;
      const double tap = taps[k];
      for (std::size_t j = 0; j < kBlock; ++j) {
        sums[j] += static_cast<double>(src[j]) * tap;
      }
    }
    for (std::size_t j = 0; j < kBlock; ++j) {
      out[x + j] = static_cast<float>(sums[j]);
    }
  }
  for (; x < n; ++x) {
    double sum = 0.0;
    for (std::size_t k = 0; k < ntaps; ++k) {
      sum += static_cast<double>(rows[k][x]) * taps[k];
    }
    out[x] = static_cast<float>(sum);
  }
}

}  // namespace

img::Image gaussian_blur(const img::Image& src, double sigma) {
  BlurScratch scratch;
  return gaussian_blur(src, sigma, scratch);
}

img::Image gaussian_blur(const img::Image& src, double sigma,
                         BlurScratch& scratch) {
  const std::vector<float> kernel = gaussian_kernel(sigma);
  const std::vector<double> taps(kernel.begin(), kernel.end());
  const std::size_t radius = kernel.size() / 2;
  const std::size_t w = src.width();
  const std::size_t h = src.height();
  if (src.empty()) return img::Image(w, h);
  std::vector<const float*> rows(taps.size());

  // Horizontal pass over each row padded by `radius` replicated pixels.
  scratch.padded.resize(w + 2 * radius);
  scratch.horizontal.resize(w * h);
  for (std::size_t y = 0; y < h; ++y) {
    const float* in = src.row(y);
    float* padded = scratch.padded.data();
    std::fill(padded, padded + radius, in[0]);
    std::copy(in, in + w, padded + radius);
    std::fill(padded + radius + w, padded + 2 * radius + w, in[w - 1]);
    for (std::size_t k = 0; k < taps.size(); ++k) rows[k] = padded + k;
    blur_row(rows.data(), taps.data(), taps.size(), w,
             scratch.horizontal.data() + y * w);
  }

  // Vertical pass: tap k of output row y reads row clamp(y + k - radius).
  img::Image dst(w, h);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t k = 0; k < taps.size(); ++k) {
      const std::size_t yy =
          std::min(h - 1, (y + k > radius) ? y + k - radius : 0);
      rows[k] = scratch.horizontal.data() + yy * w;
    }
    blur_row(rows.data(), taps.data(), taps.size(), w, dst.row(y));
  }
  return dst;
}

img::Image subtract(const img::Image& a, const img::Image& b) {
  FAST_CHECK(a.width() == b.width() && a.height() == b.height());
  img::Image out(a.width(), a.height());
  const std::size_t n = a.pixel_count();
  auto pa = a.pixels();
  auto pb = b.pixels();
  auto po = out.pixels();
  for (std::size_t i = 0; i < n; ++i) po[i] = pa[i] - pb[i];
  return out;
}

}  // namespace fast::vision

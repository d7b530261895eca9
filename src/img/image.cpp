#include "img/image.hpp"

#include <algorithm>
#include <cmath>

namespace fast::img {

float Image::at_clamped(std::ptrdiff_t x, std::ptrdiff_t y) const noexcept {
  x = std::clamp<std::ptrdiff_t>(x, 0, static_cast<std::ptrdiff_t>(width_) - 1);
  y = std::clamp<std::ptrdiff_t>(y, 0, static_cast<std::ptrdiff_t>(height_) - 1);
  return pixels_[static_cast<std::size_t>(y) * width_ +
                 static_cast<std::size_t>(x)];
}

float Image::sample_bilinear(double x, double y) const noexcept {
  const double fx = std::floor(x);
  const double fy = std::floor(y);
  const auto x0 = static_cast<std::ptrdiff_t>(fx);
  const auto y0 = static_cast<std::ptrdiff_t>(fy);
  const auto ax = static_cast<float>(x - fx);
  const auto ay = static_cast<float>(y - fy);
  float v00, v10, v01, v11;
  if (x0 >= 0 && y0 >= 0 && x0 + 1 < static_cast<std::ptrdiff_t>(width_) &&
      y0 + 1 < static_cast<std::ptrdiff_t>(height_)) {
    // Interior: the four neighbours need no clamping.
    const float* p = pixels_.data() + static_cast<std::size_t>(y0) * width_ +
                     static_cast<std::size_t>(x0);
    v00 = p[0];
    v10 = p[1];
    v01 = p[width_];
    v11 = p[width_ + 1];
  } else {
    v00 = at_clamped(x0, y0);
    v10 = at_clamped(x0 + 1, y0);
    v01 = at_clamped(x0, y0 + 1);
    v11 = at_clamped(x0 + 1, y0 + 1);
  }
  const float top = v00 + ax * (v10 - v00);
  const float bot = v01 + ax * (v11 - v01);
  return top + ay * (bot - top);
}

void Image::clamp01() noexcept {
  for (float& p : pixels_) p = std::clamp(p, 0.0f, 1.0f);
}

Image Image::downsample2() const {
  Image out(std::max<std::size_t>(1, width_ / 2),
            std::max<std::size_t>(1, height_ / 2));
  for (std::size_t y = 0; y < out.height(); ++y) {
    const float* in = row(std::min(2 * y, height_ - 1));
    float* dst = out.row(y);
    for (std::size_t x = 0; x < out.width(); ++x) {
      dst[x] = in[std::min(2 * x, width_ - 1)];
    }
  }
  return out;
}

Image Image::upsample2() const {
  Image out(width_ * 2, height_ * 2);
  for (std::size_t y = 0; y < out.height(); ++y) {
    for (std::size_t x = 0; x < out.width(); ++x) {
      out.at(x, y) = sample_bilinear(static_cast<double>(x) / 2.0,
                                     static_cast<double>(y) / 2.0);
    }
  }
  return out;
}

}  // namespace fast::img

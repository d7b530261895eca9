#include "vision/pyramid.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "vision/gaussian.hpp"

namespace fast::vision {

Pyramid build_pyramid(const img::Image& base, const PyramidConfig& config) {
  FAST_CHECK(config.octaves >= 1);
  FAST_CHECK(config.scales_per_octave >= 1);
  FAST_CHECK(!base.empty());

  Pyramid pyr;
  pyr.config = config;

  const int s = config.scales_per_octave;
  const double k = std::pow(2.0, 1.0 / static_cast<double>(s));
  const int levels = s + 3;

  // Bring the input up to base_sigma from its assumed initial blur.
  const double delta0 = std::sqrt(
      std::max(0.01, config.base_sigma * config.base_sigma -
                          config.initial_blur * config.initial_blur));
  BlurScratch scratch;
  img::Image current = gaussian_blur(base, delta0, scratch);

  int downsample = 1;
  for (int o = 0; o < config.octaves; ++o) {
    if (current.width() < config.min_dimension ||
        current.height() < config.min_dimension) {
      break;
    }
    Octave oct;
    oct.base_sigma = config.base_sigma * static_cast<double>(downsample);
    oct.downsample = downsample;
    oct.gaussians.reserve(static_cast<std::size_t>(levels));
    oct.gaussians.push_back(std::move(current));
    // Incremental blurs: sigma_i = base * k^i within the octave; each level
    // is produced from the previous with the differential sigma.
    double sigma_prev = config.base_sigma;
    for (int i = 1; i < levels; ++i) {
      const double sigma_i = config.base_sigma * std::pow(k, i);
      const double delta =
          std::sqrt(sigma_i * sigma_i - sigma_prev * sigma_prev);
      oct.gaussians.push_back(
          gaussian_blur(oct.gaussians.back(), delta, scratch));
      sigma_prev = sigma_i;
    }
    oct.dogs.reserve(static_cast<std::size_t>(levels - 1));
    for (int i = 0; i + 1 < levels; ++i) {
      oct.dogs.push_back(subtract(oct.gaussians[static_cast<std::size_t>(i + 1)],
                                  oct.gaussians[static_cast<std::size_t>(i)]));
    }
    // Next octave starts from the level with sigma = 2 * base (index s),
    // downsampled by 2.
    current = oct.gaussians[static_cast<std::size_t>(s)].downsample2();
    downsample *= 2;
    pyr.octaves.push_back(std::move(oct));
  }
  FAST_CHECK_MSG(!pyr.octaves.empty(), "input image too small for pyramid");
  return pyr;
}

}  // namespace fast::vision

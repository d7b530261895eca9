#include "vision/pca_sift.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/vecmath.hpp"
#include "vision/dog_detector.hpp"

namespace fast::vision {

std::vector<float> gradient_patch(const img::Image& image, const Keypoint& kp,
                                  const PcaSiftConfig& config) {
  const int p = config.patch_size;
  FAST_CHECK(p >= 3);
  std::vector<float> patch(static_cast<std::size_t>(2 * p * p));

  const double extent = config.magnification * std::max(kp.sigma, 0.8);
  const double step = 2.0 * extent / static_cast<double>(p - 1);
  const double cos_t = std::cos(kp.orientation);
  const double sin_t = std::sin(kp.orientation);

  std::size_t gx_idx = 0;
  std::size_t gy_idx = static_cast<std::size_t>(p * p);
  for (int iy = 0; iy < p; ++iy) {
    const double oy = (iy - (p - 1) / 2.0) * step;
    for (int ix = 0; ix < p; ++ix) {
      const double ox = (ix - (p - 1) / 2.0) * step;
      // Rotate the sampling offset by the keypoint orientation so the patch
      // is expressed in the keypoint's canonical frame.
      const double sx = kp.x + cos_t * ox - sin_t * oy;
      const double sy = kp.y + sin_t * ox + cos_t * oy;
      // Gradient in the rotated frame: sample along the rotated axes.
      const double hx = step * 0.5;
      const double gx =
          image.sample_bilinear(sx + cos_t * hx, sy + sin_t * hx) -
          image.sample_bilinear(sx - cos_t * hx, sy - sin_t * hx);
      const double gy =
          image.sample_bilinear(sx - sin_t * hx, sy + cos_t * hx) -
          image.sample_bilinear(sx + sin_t * hx, sy - cos_t * hx);
      patch[gx_idx++] = static_cast<float>(gx);
      patch[gy_idx++] = static_cast<float>(gy);
    }
  }
  // Unit-norm the whole patch: gain-invariance (bias vanished in gradients).
  util::normalize_l2(patch);
  return patch;
}

std::vector<std::vector<float>> training_patches(
    std::span<const img::Image> images, const PcaSiftConfig& config,
    std::size_t max_patches) {
  std::vector<std::vector<float>> patches;
  DogConfig dog;
  dog.max_keypoints = 64;
  for (const img::Image& image : images) {
    for (const Keypoint& kp : detect_keypoints(image, dog)) {
      patches.push_back(gradient_patch(image, kp, config));
      if (patches.size() >= max_patches) break;
    }
    if (patches.size() >= max_patches) break;
  }
  return patches;
}

PcaModel train_pca_sift(std::span<const img::Image> images,
                        const PcaSiftConfig& config, std::size_t max_patches) {
  const auto patches = training_patches(images, config, max_patches);
  FAST_CHECK_MSG(patches.size() >= 2,
                 "too few training patches for PCA-SIFT eigenspace");
  const std::size_t out_dim =
      std::min(config.output_dim, patches.front().size());
  return train_pca(patches, out_dim);
}

std::vector<float> compute_pca_sift(const img::Image& image,
                                    const Keypoint& kp, const PcaModel& model,
                                    const PcaSiftConfig& config) {
  return model.project(gradient_patch(image, kp, config));
}

std::vector<Feature> extract_pca_sift_features(const img::Image& image,
                                               const PcaModel& model,
                                               const PcaSiftConfig& config,
                                               std::size_t max_keypoints) {
  DogConfig dog;
  dog.max_keypoints = max_keypoints;
  const std::vector<Keypoint> kps = detect_keypoints(image, dog);
  std::vector<Feature> features;
  features.reserve(kps.size());
  for (const Keypoint& kp : kps) {
    Feature f;
    f.keypoint = kp;
    f.descriptor = compute_pca_sift(image, kp, model, config);
    features.push_back(std::move(f));
  }
  return features;
}

}  // namespace fast::vision

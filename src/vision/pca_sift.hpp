// PCA-SIFT descriptors (Ke & Sukthankar 2004, the paper's ref [7]).
//
// Instead of Lowe's orientation histograms, PCA-SIFT extracts a normalized
// gradient patch around each keypoint (in the keypoint's scaled, rotated
// frame) and projects it onto a PCA eigenspace trained offline from a sample
// of patches. The resulting descriptors are far more compact (the paper uses
// this compactness as the stepping stone to its Bloom-filter summaries).
#pragma once

#include <span>
#include <vector>

#include "img/image.hpp"
#include "vision/keypoint.hpp"
#include "vision/pca.hpp"

namespace fast::vision {

struct PcaSiftConfig {
  int patch_size = 17;      ///< gradient patch side (d_in = 2 * p^2)
  std::size_t output_dim = 36;  ///< projected descriptor dimensionality
  double magnification = 3.0;   ///< patch half-width in units of sigma
};

/// Extracts the raw normalized gradient patch (length 2 * patch^2: all x
/// gradients then all y gradients, unit L2 norm) for a keypoint.
std::vector<float> gradient_patch(const img::Image& image, const Keypoint& kp,
                                  const PcaSiftConfig& config = {});

/// The gradient patches train_pca_sift trains on: up to `max_patches`, from
/// the keypoints detected across `images`, in image order.
std::vector<std::vector<float>> training_patches(
    std::span<const img::Image> images, const PcaSiftConfig& config,
    std::size_t max_patches);

/// Trains the PCA eigenspace from keypoints detected across `images`.
/// Deterministic given the image list.
PcaModel train_pca_sift(std::span<const img::Image> images,
                        const PcaSiftConfig& config = {},
                        std::size_t max_patches = 2000);

/// Computes the PCA-SIFT descriptor of one keypoint.
std::vector<float> compute_pca_sift(const img::Image& image,
                                    const Keypoint& kp, const PcaModel& model,
                                    const PcaSiftConfig& config = {});

/// Detects keypoints and computes PCA-SIFT descriptors for all of them.
std::vector<Feature> extract_pca_sift_features(const img::Image& image,
                                               const PcaModel& model,
                                               const PcaSiftConfig& config = {},
                                               std::size_t max_keypoints = 256);

}  // namespace fast::vision

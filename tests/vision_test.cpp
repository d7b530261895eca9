#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <thread>

#include <gtest/gtest.h>

#include "hash/hashes.hpp"
#include "img/draw.hpp"
#include "img/transform.hpp"
#include "util/rng.hpp"
#include "util/vecmath.hpp"
#include "vision/bloom_summarizer.hpp"
#include "vision/dog_detector.hpp"
#include "vision/gaussian.hpp"
#include "vision/matcher.hpp"
#include "vision/pca.hpp"
#include "vision/pca_sift.hpp"
#include "vision/pyramid.hpp"
#include "vision/sift_descriptor.hpp"
#include "workload/query_gen.hpp"
#include "workload/scene_generator.hpp"

namespace fast::vision {
namespace {

img::Image textured_image(std::size_t n, std::uint64_t seed) {
  img::Image im(n, n, 0.5f);
  img::add_texture(im, 0, 0, static_cast<std::ptrdiff_t>(n),
                   static_cast<std::ptrdiff_t>(n), 0.25f, seed);
  img::scatter_blobs(im, 0, 0, static_cast<std::ptrdiff_t>(n),
                     static_cast<std::ptrdiff_t>(n), n / 2, 1.5, 3.0,
                     seed ^ 0xb10b);
  im.clamp01();
  return im;
}

// ---------- Gaussian ----------

TEST(Gaussian, KernelIsNormalized) {
  for (double sigma : {0.5, 1.0, 2.3}) {
    const auto k = gaussian_kernel(sigma);
    double sum = 0;
    for (float v : k) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-5);
    EXPECT_EQ(k.size() % 2, 1u);  // odd length
  }
}

TEST(Gaussian, KernelIsSymmetricAndPeaked) {
  const auto k = gaussian_kernel(1.5);
  const std::size_t mid = k.size() / 2;
  for (std::size_t i = 0; i < mid; ++i) {
    EXPECT_FLOAT_EQ(k[i], k[k.size() - 1 - i]);
    EXPECT_LT(k[i], k[mid]);
  }
}

TEST(Gaussian, BlurPreservesConstantImage) {
  img::Image im(16, 16, 0.42f);
  const img::Image out = gaussian_blur(im, 2.0);
  for (float p : out.pixels()) EXPECT_NEAR(p, 0.42f, 1e-5);
}

TEST(Gaussian, BlurReducesVariance) {
  img::Image im = textured_image(32, 1);
  const img::Image out = gaussian_blur(im, 2.0);
  auto variance = [](const img::Image& x) {
    double mean = 0;
    for (float p : x.pixels()) mean += p;
    mean /= static_cast<double>(x.pixel_count());
    double var = 0;
    for (float p : x.pixels()) var += (p - mean) * (p - mean);
    return var / static_cast<double>(x.pixel_count());
  };
  EXPECT_LT(variance(out), variance(im) * 0.8);
}

TEST(Gaussian, SubtractComputesDifference) {
  img::Image a(2, 2, 0.75f), b(2, 2, 0.25f);
  const img::Image d = subtract(a, b);
  for (float p : d.pixels()) EXPECT_FLOAT_EQ(p, 0.5f);
}

// gaussian_blur as it was before the row-major rewrite, kept verbatim as
// the reference the rewrite must match byte for byte.
img::Image reference_gaussian_blur(const img::Image& src, double sigma) {
  const std::vector<float> kernel = gaussian_kernel(sigma);
  const int radius = static_cast<int>(kernel.size() / 2);
  const auto w = static_cast<std::ptrdiff_t>(src.width());
  const auto h = static_cast<std::ptrdiff_t>(src.height());

  // Horizontal pass.
  img::Image tmp(src.width(), src.height());
  for (std::ptrdiff_t y = 0; y < h; ++y) {
    const float* in = src.row(static_cast<std::size_t>(y));
    float* out = tmp.row(static_cast<std::size_t>(y));
    for (std::ptrdiff_t x = 0; x < w; ++x) {
      double acc = 0.0;
      for (int k = -radius; k <= radius; ++k) {
        const std::ptrdiff_t xx = std::clamp<std::ptrdiff_t>(x + k, 0, w - 1);
        acc += static_cast<double>(in[xx]) *
               kernel[static_cast<std::size_t>(k + radius)];
      }
      out[x] = static_cast<float>(acc);
    }
  }

  // Vertical pass.
  img::Image dst(src.width(), src.height());
  for (std::ptrdiff_t y = 0; y < h; ++y) {
    float* out = dst.row(static_cast<std::size_t>(y));
    for (std::ptrdiff_t x = 0; x < w; ++x) {
      double acc = 0.0;
      for (int k = -radius; k <= radius; ++k) {
        const std::ptrdiff_t yy = std::clamp<std::ptrdiff_t>(y + k, 0, h - 1);
        acc += static_cast<double>(
                   tmp.row(static_cast<std::size_t>(yy))[x]) *
               kernel[static_cast<std::size_t>(k + radius)];
      }
      out[x] = static_cast<float>(acc);
    }
  }
  return dst;
}

// Pixels in [-0.5, 0.5): signed, like the DoG planes.
img::Image signed_noise(std::size_t w, std::size_t h, std::uint64_t seed) {
  util::Rng rng(seed);
  img::Image im(w, h);
  for (float& p : im.pixels()) p = static_cast<float>(rng.uniform(-0.5, 0.5));
  return im;
}

bool same_bytes(const img::Image& a, const img::Image& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::memcmp(a.pixels().data(), b.pixels().data(),
                     a.pixel_count() * sizeof(float)) == 0;
}

// Sizes of 1 and 2, sizes below the kernel radius (9 at sigma 3), odd
// sizes and a full-width photo row, with one scratch reused across all of
// them as build_pyramid reuses it across levels.
TEST(Gaussian, BlurMatchesReferenceBytes) {
  BlurScratch scratch;
  std::uint64_t seed = 1;
  for (std::size_t w : {1, 2, 5, 8, 17, 33, 128}) {
    for (std::size_t h : {1, 2, 3, 7, 16, 31}) {
      const img::Image im = signed_noise(w, h, seed++);
      for (double sigma : {0.3, 0.5, 0.8, 1.2262735, 1.6, 2.2, 3.0}) {
        SCOPED_TRACE(::testing::Message() << w << "x" << h << " sigma "
                                          << sigma);
        const img::Image want = reference_gaussian_blur(im, sigma);
        EXPECT_TRUE(same_bytes(gaussian_blur(im, sigma, scratch), want));
        EXPECT_TRUE(same_bytes(gaussian_blur(im, sigma), want));
      }
    }
  }
}

// ---------- Pyramid ----------

TEST(Pyramid, LevelAndOctaveCounts) {
  const img::Image im = textured_image(64, 2);
  PyramidConfig cfg;
  cfg.octaves = 3;
  cfg.scales_per_octave = 3;
  const Pyramid pyr = build_pyramid(im, cfg);
  ASSERT_GE(pyr.octaves.size(), 2u);
  for (const Octave& o : pyr.octaves) {
    EXPECT_EQ(o.gaussians.size(), 6u);  // s + 3
    EXPECT_EQ(o.dogs.size(), 5u);       // s + 2
  }
}

TEST(Pyramid, OctavesHalveResolution) {
  const img::Image im = textured_image(64, 3);
  const Pyramid pyr = build_pyramid(im);
  for (std::size_t o = 1; o < pyr.octaves.size(); ++o) {
    EXPECT_EQ(pyr.octaves[o].gaussians[0].width(),
              pyr.octaves[o - 1].gaussians[0].width() / 2);
    EXPECT_EQ(pyr.octaves[o].downsample, pyr.octaves[o - 1].downsample * 2);
  }
}

TEST(Pyramid, StopsBelowMinDimension) {
  const img::Image im = textured_image(32, 4);
  PyramidConfig cfg;
  cfg.octaves = 10;
  cfg.min_dimension = 16;
  const Pyramid pyr = build_pyramid(im, cfg);
  EXPECT_LE(pyr.octaves.size(), 2u);
}

// ---------- DoG detector ----------

TEST(DogDetector, FindsIsolatedBlob) {
  img::Image im(48, 48, 0.2f);
  img::fill_circle(im, 24, 24, 3.0, 1.0f);
  const auto kps = detect_keypoints(im);
  ASSERT_FALSE(kps.empty());
  // The strongest keypoint should sit on the blob.
  EXPECT_NEAR(kps[0].x, 24.0, 2.5);
  EXPECT_NEAR(kps[0].y, 24.0, 2.5);
}

TEST(DogDetector, ScaleTracksBlobSize) {
  auto blob_scale = [](double radius) {
    img::Image im(64, 64, 0.2f);
    img::fill_circle(im, 32, 32, radius, 1.0f);
    const auto kps = detect_keypoints(im);
    EXPECT_FALSE(kps.empty());
    return kps.empty() ? 0.0 : kps[0].sigma;
  };
  EXPECT_LT(blob_scale(3.0), blob_scale(6.0));
}

TEST(DogDetector, EmptyOnFlatImage) {
  img::Image im(48, 48, 0.5f);
  EXPECT_TRUE(detect_keypoints(im).empty());
}

TEST(DogDetector, SortedByResponse) {
  const img::Image im = textured_image(64, 5);
  const auto kps = detect_keypoints(im);
  for (std::size_t i = 1; i < kps.size(); ++i) {
    EXPECT_GE(kps[i - 1].response, kps[i].response);
  }
}

TEST(DogDetector, MaxKeypointsRespected) {
  const img::Image im = textured_image(96, 6);
  DogConfig cfg;
  cfg.max_keypoints = 5;
  EXPECT_LE(detect_keypoints(im, cfg).size(), 5u);
}

TEST(DogDetector, RepeatabilityUnderSmallShift) {
  const img::Image im = textured_image(64, 7);
  img::Affine t;
  t.tx = 2.0;  // content shifts left 2px
  const img::Image shifted = img::warp_affine(im, t);
  const auto a = detect_keypoints(im);
  const auto b = detect_keypoints(shifted);
  ASSERT_FALSE(a.empty());
  std::size_t matched = 0;
  for (const auto& ka : a) {
    for (const auto& kb : b) {
      if (std::hypot(ka.x - 2.0 - kb.x, ka.y - kb.y) < 2.0) {
        ++matched;
        break;
      }
    }
  }
  EXPECT_GT(static_cast<double>(matched) / a.size(), 0.5);
}

TEST(DogDetector, OrientationFollowsRotation) {
  // A step edge's dominant gradient orientation rotates with the image.
  img::Image im(48, 48, 0.2f);
  img::fill_rect(im, 0, 0, 24, 48, 0.9f);
  const double o1 = dominant_orientation(im, 24, 24, 2.0);
  img::Image rot = img::warp_affine(
      im, img::Affine::similarity(M_PI / 2, 1.0, 24, 24));
  const double o2 = dominant_orientation(rot, 24, 24, 2.0);
  double delta = std::fabs(o2 - o1);
  if (delta > M_PI) delta = 2 * M_PI - delta;
  EXPECT_NEAR(delta, M_PI / 2, 0.3);
}

// dominant_orientation as it was before the weight table and the interior
// reads, kept verbatim as the reference it must match bit for bit.
double reference_dominant_orientation(const img::Image& gaussian, double x_oct,
                                      double y_oct, double sigma_oct) {
  constexpr double kPi = 3.14159265358979323846;
  constexpr int kBins = 36;
  double hist[kBins] = {};
  const double win_sigma = 1.5 * sigma_oct;
  const int radius = std::max(1, static_cast<int>(std::lround(3.0 * win_sigma)));
  const auto cx = static_cast<std::ptrdiff_t>(std::lround(x_oct));
  const auto cy = static_cast<std::ptrdiff_t>(std::lround(y_oct));
  const double inv_two_sigma2 = 1.0 / (2.0 * win_sigma * win_sigma);

  for (int dy = -radius; dy <= radius; ++dy) {
    for (int dx = -radius; dx <= radius; ++dx) {
      const std::ptrdiff_t px = cx + dx;
      const std::ptrdiff_t py = cy + dy;
      const double gx = gaussian.at_clamped(px + 1, py) -
                        gaussian.at_clamped(px - 1, py);
      const double gy = gaussian.at_clamped(px, py + 1) -
                        gaussian.at_clamped(px, py - 1);
      const double mag = std::sqrt(gx * gx + gy * gy);
      if (mag <= 0) continue;
      const double w =
          std::exp(-static_cast<double>(dx * dx + dy * dy) * inv_two_sigma2);
      double angle = std::atan2(gy, gx);  // [-pi, pi]
      if (angle < 0) angle += 2 * kPi;
      int bin = static_cast<int>(angle / (2 * kPi) * kBins);
      bin = std::clamp(bin, 0, kBins - 1);
      hist[bin] += w * mag;
    }
  }

  // Smooth the circular histogram a couple of times (box of width 3).
  for (int pass = 0; pass < 2; ++pass) {
    double prev = hist[kBins - 1];
    const double first = hist[0];
    for (int b = 0; b < kBins; ++b) {
      const double next = (b + 1 < kBins) ? hist[b + 1] : first;
      const double cur = hist[b];
      hist[b] = (prev + cur + next) / 3.0;
      prev = cur;
    }
  }

  int best = 0;
  for (int b = 1; b < kBins; ++b) {
    if (hist[b] > hist[best]) best = b;
  }
  // Parabolic interpolation of the peak.
  const double l = hist[(best + kBins - 1) % kBins];
  const double ctr = hist[best];
  const double rgt = hist[(best + 1) % kBins];
  double offset = 0.0;
  const double denom = l - 2 * ctr + rgt;
  if (std::fabs(denom) > 1e-12) offset = 0.5 * (l - rgt) / denom;
  double angle = (static_cast<double>(best) + 0.5 + offset) / kBins * 2 * kPi;
  if (angle >= 2 * kPi) angle -= 2 * kPi;
  if (angle < 0) angle += 2 * kPi;
  return angle;
}

// Windows inside, across and beyond every border, on small and odd-sized
// images, at window radii from 1 to 18.
TEST(DogDetector, OrientationMatchesReference) {
  util::Rng rng(77);
  for (std::size_t w : {3, 9, 64}) {
    for (std::size_t h : {4, 33}) {
      const img::Image im = gaussian_blur(signed_noise(w, h, w * 100 + h), 1.0);
      for (int i = 0; i < 200; ++i) {
        const double x = rng.uniform(-6.0, static_cast<double>(w) + 6.0);
        const double y = rng.uniform(-6.0, static_cast<double>(h) + 6.0);
        const double sigma = rng.uniform(0.1, 4.0);
        const double got = dominant_orientation(im, x, y, sigma);
        const double want = reference_dominant_orientation(im, x, y, sigma);
        EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
            << w << "x" << h << " at (" << x << ", " << y << ") sigma "
            << sigma;
      }
    }
  }
}

// ---------- SIFT descriptor ----------

TEST(Sift, DescriptorDimension) {
  const img::Image im = textured_image(64, 8);
  const auto kps = detect_keypoints(im);
  ASSERT_FALSE(kps.empty());
  const auto d = compute_sift(im, kps[0]);
  EXPECT_EQ(d.size(), static_cast<std::size_t>(kSiftDim));
}

TEST(Sift, DescriptorIsUnitNorm) {
  const img::Image im = textured_image(64, 9);
  const auto kps = detect_keypoints(im);
  ASSERT_FALSE(kps.empty());
  const auto d = compute_sift(im, kps[0]);
  EXPECT_NEAR(util::l2_norm(d), 1.0, 1e-4);
}

TEST(Sift, ComponentsClamped) {
  const img::Image im = textured_image(64, 10);
  const auto kps = detect_keypoints(im);
  ASSERT_FALSE(kps.empty());
  SiftConfig cfg;
  const auto d = compute_sift(im, kps[0], cfg);
  for (float v : d) {
    EXPECT_GE(v, 0.0f);
    // Post-clamp renormalization can push values slightly above the clamp.
    EXPECT_LE(v, cfg.clamp * 1.5f);
  }
}

TEST(Sift, IdenticalKeypointsGiveIdenticalDescriptors) {
  const img::Image im = textured_image(64, 11);
  const auto kps = detect_keypoints(im);
  ASSERT_FALSE(kps.empty());
  const auto d1 = compute_sift(im, kps[0]);
  const auto d2 = compute_sift(im, kps[0]);
  EXPECT_EQ(d1, d2);
}

TEST(Sift, InvariantToIlluminationGain) {
  const img::Image im = textured_image(64, 12);
  const auto kps = detect_keypoints(im);
  ASSERT_FALSE(kps.empty());
  img::Image bright = im;
  // Pure gain without clamping distortion (values stay in range).
  for (float& p : bright.pixels()) p *= 0.8f;
  const auto d1 = compute_sift(im, kps[0]);
  const auto d2 = compute_sift(bright, kps[0]);
  EXPECT_LT(util::l2_distance(d1, d2), 0.05);
}

TEST(Sift, DescriptorChangesAcrossKeypoints) {
  const img::Image im = textured_image(64, 13);
  const auto kps = detect_keypoints(im);
  ASSERT_GE(kps.size(), 2u);
  const auto d1 = compute_sift(im, kps[0]);
  const auto d2 = compute_sift(im, kps[1]);
  EXPECT_GT(util::l2_distance(d1, d2), 0.1);
}

TEST(Sift, ExtractFeaturesBundlesKeypointAndDescriptor) {
  const img::Image im = textured_image(64, 14);
  const auto feats = extract_sift_features(im, 16);
  ASSERT_FALSE(feats.empty());
  EXPECT_LE(feats.size(), 16u);
  for (const auto& f : feats) {
    EXPECT_EQ(f.descriptor.size(), static_cast<std::size_t>(kSiftDim));
  }
}

// ---------- PCA ----------

TEST(Pca, JacobiDiagonalMatrix) {
  // diag(3, 1) -> eigenvalues {3, 1} with axis eigenvectors.
  std::vector<double> m{3, 0, 0, 1};
  std::vector<double> evals;
  std::vector<std::vector<double>> evecs;
  jacobi_eigen_symmetric(m, 2, evals, evecs);
  EXPECT_NEAR(evals[0], 3.0, 1e-10);
  EXPECT_NEAR(evals[1], 1.0, 1e-10);
  EXPECT_NEAR(std::fabs(evecs[0][0]), 1.0, 1e-10);
}

TEST(Pca, JacobiKnown2x2) {
  // [[2,1],[1,2]] -> eigenvalues 3 and 1.
  std::vector<double> m{2, 1, 1, 2};
  std::vector<double> evals;
  std::vector<std::vector<double>> evecs;
  jacobi_eigen_symmetric(m, 2, evals, evecs);
  EXPECT_NEAR(evals[0], 3.0, 1e-10);
  EXPECT_NEAR(evals[1], 1.0, 1e-10);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::fabs(evecs[0][0] / evecs[0][1]), 1.0, 1e-8);
}

TEST(Pca, EigenvaluesDescendAndNonNegative) {
  util::Rng rng(15);
  std::vector<std::vector<float>> samples;
  for (int i = 0; i < 50; ++i) {
    std::vector<float> s(8);
    for (auto& v : s) v = static_cast<float>(rng.gaussian());
    samples.push_back(std::move(s));
  }
  const PcaModel model = train_pca(samples, 8);
  for (std::size_t i = 1; i < model.eigenvalues.size(); ++i) {
    EXPECT_GE(model.eigenvalues[i - 1], model.eigenvalues[i]);
    EXPECT_GE(model.eigenvalues[i], 0.0f);
  }
}

TEST(Pca, ComponentsAreOrthonormal) {
  util::Rng rng(16);
  std::vector<std::vector<float>> samples;
  for (int i = 0; i < 60; ++i) {
    std::vector<float> s(6);
    for (auto& v : s) v = static_cast<float>(rng.gaussian());
    samples.push_back(std::move(s));
  }
  const PcaModel model = train_pca(samples, 4);
  for (std::size_t i = 0; i < model.components.size(); ++i) {
    EXPECT_NEAR(util::l2_norm(model.components[i]), 1.0, 1e-5);
    for (std::size_t j = i + 1; j < model.components.size(); ++j) {
      EXPECT_NEAR(util::dot(model.components[i], model.components[j]), 0.0,
                  1e-5);
    }
  }
}

TEST(Pca, RecoversLowRankStructure) {
  // Data that lives on a 2-D plane inside R^5 must be reconstructed almost
  // exactly from 2 components.
  util::Rng rng(17);
  const std::vector<float> dir1{1, 0, 1, 0, 1};
  const std::vector<float> dir2{0, 1, 0, -1, 0};
  std::vector<std::vector<float>> samples;
  for (int i = 0; i < 80; ++i) {
    const auto a = static_cast<float>(rng.gaussian());
    const auto b = static_cast<float>(rng.gaussian());
    std::vector<float> s(5);
    for (int d = 0; d < 5; ++d) s[d] = a * dir1[d] + b * dir2[d];
    samples.push_back(std::move(s));
  }
  const PcaModel model = train_pca(samples, 2);
  for (const auto& s : samples) {
    const auto rec = model.reconstruct(model.project(s));
    EXPECT_LT(util::l2_distance(rec, s), 1e-4);
  }
  EXPECT_GT(model.eigenvalues[0], 0.5f);
}

TEST(Pca, ProjectionReducesDimension) {
  util::Rng rng(18);
  std::vector<std::vector<float>> samples;
  for (int i = 0; i < 20; ++i) {
    std::vector<float> s(10);
    for (auto& v : s) v = static_cast<float>(rng.gaussian());
    samples.push_back(std::move(s));
  }
  const PcaModel model = train_pca(samples, 3);
  EXPECT_EQ(model.output_dim(), 3u);
  EXPECT_EQ(model.project(samples[0]).size(), 3u);
}

// PcaModel::project as it was before the interleaved chains: one util::dot
// per component.
std::vector<float> reference_project(const PcaModel& model,
                                     std::span<const float> x) {
  std::vector<float> centered(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) centered[i] = x[i] - model.mean[i];
  std::vector<float> out(model.components.size());
  for (std::size_t c = 0; c < model.components.size(); ++c) {
    out[c] = static_cast<float>(util::dot(model.components[c], centered));
  }
  return out;
}

// Component counts on both sides of each multiple of the chain width.
TEST(Pca, ProjectionMatchesReference) {
  util::Rng rng(91);
  for (std::size_t d : {1, 7, 162}) {
    for (std::size_t out_dim = 1; out_dim <= 10; ++out_dim) {
      PcaModel model;
      model.mean.resize(d);
      for (float& m : model.mean) m = static_cast<float>(rng.gaussian());
      model.components.assign(out_dim, std::vector<float>(d));
      for (auto& row : model.components) {
        for (float& v : row) v = static_cast<float>(rng.gaussian());
      }
      std::vector<float> x(d);
      for (float& v : x) v = static_cast<float>(rng.gaussian());
      const auto got = model.project(x);
      const auto want = reference_project(model, x);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
                0)
          << "d=" << d << " out_dim=" << out_dim;
    }
  }
}

// The cyclic Jacobi loop as it was before the column rotations were
// deferred, kept verbatim as the reference the solver must match bit for bit.
void reference_jacobi(std::vector<double> a, std::size_t n,
                      std::vector<double>& eigenvalues,
                      std::vector<std::vector<double>>& eigenvectors,
                      int max_sweeps) {
  std::vector<double> v(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) v[i * n + i] = 1.0;

  auto A = [&](std::size_t r, std::size_t c) -> double& { return a[r * n + c]; };
  auto V = [&](std::size_t r, std::size_t c) -> double& { return v[r * n + c]; };

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) off += A(p, q) * A(p, q);
    }
    if (off < 1e-20) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = A(p, q);
        if (std::fabs(apq) < 1e-30) continue;
        const double app = A(p, p);
        const double aqq = A(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (std::size_t i = 0; i < n; ++i) {
          const double aip = A(i, p);
          const double aiq = A(i, q);
          A(i, p) = c * aip - s * aiq;
          A(i, q) = s * aip + c * aiq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double api = A(p, i);
          const double aqi = A(q, i);
          A(p, i) = c * api - s * aqi;
          A(q, i) = s * api + c * aqi;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double vip = V(i, p);
          const double viq = V(i, q);
          V(i, p) = c * vip - s * viq;
          V(i, q) = s * vip + c * viq;
        }
      }
    }
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    return a[i * n + i] > a[j * n + j];
  });
  eigenvalues.resize(n);
  eigenvectors.assign(n, std::vector<double>(n));
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t col = order[k];
    eigenvalues[k] = a[col * n + col];
    for (std::size_t i = 0; i < n; ++i) {
      eigenvectors[k][i] = v[i * n + col];
    }
  }
}

std::vector<double> random_symmetric(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> m(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      m[i * n + j] = m[j * n + i] = rng.gaussian();
    }
  }
  return m;
}

// Solves `m` with the reference loop and with the solver on 1, 2 and 4
// workers; eigenvalues and eigenvectors must be equal bytes.
void expect_bit_identical(const std::vector<double>& m, std::size_t n,
                          int max_sweeps) {
  std::vector<double> ref_vals;
  std::vector<std::vector<double>> ref_vecs;
  reference_jacobi(m, n, ref_vals, ref_vecs, max_sweeps);
  for (unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n << " sweeps=" << max_sweeps
                                      << " workers=" << workers);
    std::vector<double> vals;
    std::vector<std::vector<double>> vecs;
    detail::jacobi_eigen_symmetric(m, n, vals, vecs, max_sweeps, workers);
    ASSERT_EQ(vals.size(), n);
    ASSERT_EQ(vecs.size(), n);
    EXPECT_EQ(std::memcmp(vals.data(), ref_vals.data(), n * sizeof(double)),
              0);
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_EQ(vecs[k].size(), n);
      EXPECT_EQ(std::memcmp(vecs[k].data(), ref_vecs[k].data(),
                            n * sizeof(double)),
                0)
          << "eigenvector " << k;
    }
  }
}

TEST(Pca, JacobiMatchesReferenceOnRandomMatrices) {
  for (std::size_t n : {1, 2, 3, 5, 17, 64, 131}) {
    expect_bit_identical(random_symmetric(n, 700 + n), n, 64);
  }
}

// Exact-zero couplings between diagonal blocks: every rotation across
// blocks is skipped (|apq| < 1e-30), so some pivot rows log nothing.
TEST(Pca, JacobiMatchesReferenceOnBlockDiagonalMatrices) {
  for (std::size_t n : {9, 40, 137}) {
    std::vector<double> m = random_symmetric(n, 800 + n);
    std::size_t start = 0;
    for (std::size_t width = 1; start < n; start += width, width = width % 7 + 1) {
      const std::size_t end = std::min(n, start + width);
      for (std::size_t i = start; i < end; ++i) {
        for (std::size_t j = end; j < n; ++j) m[i * n + j] = m[j * n + i] = 0.0;
      }
    }
    expect_bit_identical(m, n, 64);
  }
}

TEST(Pca, JacobiMatchesReferenceOnDiagonalMatrix) {
  const std::size_t n = 33;
  std::vector<double> m(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m[i * n + i] = std::cos(double(i));
  expect_bit_identical(m, n, 64);
}

TEST(Pca, JacobiMatchesReferenceWhenSweepCapIsHit) {
  for (std::size_t n : {17, 131}) {
    for (int sweeps : {1, 2}) {
      expect_bit_identical(random_symmetric(n, 900 + n), n, sweeps);
    }
  }
}

// The first 16 Wuhan photos, which servebench trains its eigenspace on,
// with PCA-SIFT patches reduced to 9 x 9 (d = 162) to keep the test cheap.
std::vector<img::Image> wuhan_sample() {
  const auto dataset =
      workload::SceneGenerator(workload::DatasetSpec::wuhan(16)).generate();
  std::vector<img::Image> sample;
  for (const auto& photo : dataset.photos) sample.push_back(photo.image);
  return sample;
}

PcaSiftConfig small_patches() {
  PcaSiftConfig cfg;
  cfg.patch_size = 9;
  return cfg;
}

TEST(Pca, JacobiMatchesReferenceOnPatchCovariance) {
  const auto patches = training_patches(wuhan_sample(), small_patches(), 1500);
  const auto cov = covariance_matrix(patches, util::mean_vector(patches));
  expect_bit_identical(cov, patches.front().size(), 64);
}

// Pins the bytes of the trained model. The digest was recorded with the
// cyclic loop, before the solver deferred its column rotations.
TEST(Pca, TrainedModelDigestIsPinned) {
  const PcaModel model = train_pca_sift(wuhan_sample(), small_patches(), 1500);
  ASSERT_EQ(model.input_dim(), 162u);
  std::vector<unsigned char> bytes;
  auto append = [&](const std::vector<float>& v) {
    const auto* b = reinterpret_cast<const unsigned char*>(v.data());
    bytes.insert(bytes.end(), b, b + v.size() * sizeof(float));
  };
  append(model.mean);
  for (const auto& c : model.components) append(c);
  append(model.eigenvalues);
  EXPECT_EQ(hash::fnv1a_64(bytes.data(), bytes.size()), 0xaa7691af5b5368d2ULL);
}

// ---------- PCA-SIFT ----------

TEST(PcaSift, GradientPatchIsUnitNorm) {
  const img::Image im = textured_image(64, 19);
  const auto kps = detect_keypoints(im);
  ASSERT_FALSE(kps.empty());
  const auto patch = gradient_patch(im, kps[0]);
  PcaSiftConfig cfg;
  EXPECT_EQ(patch.size(),
            static_cast<std::size_t>(2 * cfg.patch_size * cfg.patch_size));
  EXPECT_NEAR(util::l2_norm(patch), 1.0, 1e-4);
}

TEST(PcaSift, TrainAndProjectEndToEnd) {
  std::vector<img::Image> images;
  for (int i = 0; i < 4; ++i) images.push_back(textured_image(64, 20 + i));
  PcaSiftConfig cfg;
  cfg.output_dim = 12;
  const PcaModel model = train_pca_sift(images, cfg, 200);
  EXPECT_EQ(model.output_dim(), 12u);
  const auto kps = detect_keypoints(images[0]);
  ASSERT_FALSE(kps.empty());
  const auto desc = compute_pca_sift(images[0], kps[0], model, cfg);
  EXPECT_EQ(desc.size(), 12u);
}

TEST(PcaSift, SimilarPatchesProjectClose) {
  std::vector<img::Image> images;
  for (int i = 0; i < 4; ++i) images.push_back(textured_image(64, 30 + i));
  PcaSiftConfig cfg;
  cfg.output_dim = 16;
  const PcaModel model = train_pca_sift(images, cfg, 200);

  const img::Image& im = images[0];
  img::Image noisy = im;
  util::Rng rng(31);
  img::add_gaussian_noise(noisy, 0.01, rng);
  const auto kps = detect_keypoints(im);
  ASSERT_FALSE(kps.empty());
  const auto d1 = compute_pca_sift(im, kps[0], model, cfg);
  const auto d2 = compute_pca_sift(noisy, kps[0], model, cfg);
  // Same keypoint, slightly noisy image: projections nearly identical
  // relative to the typical descriptor scale.
  EXPECT_LT(util::l2_distance(d1, d2), 0.3 * util::l2_norm(d1) + 1e-3);
}

// ---------- FE/SM pin ----------

// What FE (DoG + PCA-SIFT) and SM (Bloom) emit for the first 24 Wuhan
// photos and 8 near-duplicate probes of them, with the eigenspace trained
// on the first 16 photos at 9 x 9 patches. The digests were recorded
// before the FE kernels were rewritten and must never be edited: every
// keypoint, descriptor and signature bit has to stay the same.
struct FeSmCorpus {
  std::vector<img::Image> images;  // 24 photos, then 8 probes
  PcaModel model;
};

const FeSmCorpus& fe_sm_corpus() {
  static const FeSmCorpus corpus = [] {
    const auto dataset =
        workload::SceneGenerator(workload::DatasetSpec::wuhan(24)).generate();
    FeSmCorpus c;
    for (const auto& photo : dataset.photos) c.images.push_back(photo.image);
    const std::vector<img::Image> sample(c.images.begin(),
                                         c.images.begin() + 16);
    c.model = train_pca_sift(sample, small_patches(), 1500);
    for (auto& q : workload::make_dup_queries(dataset, 8)) {
      c.images.push_back(std::move(q.image));
    }
    return c;
  }();
  return corpus;
}

class Digest {
 public:
  template <typename T>
  void add(const T& v) {
    const auto* b = reinterpret_cast<const unsigned char*>(&v);
    bytes_.insert(bytes_.end(), b, b + sizeof(T));
  }
  template <typename T>
  void add_all(std::span<const T> v) {
    add(v.size());
    for (const T& x : v) add(x);
  }
  std::uint64_t value() const {
    return hash::fnv1a_64(bytes_.data(), bytes_.size());
  }

 private:
  std::vector<unsigned char> bytes_;
};

DogConfig pinned_dog() {
  DogConfig dog;
  dog.max_keypoints = BloomSummarizerConfig{}.max_keypoints;
  return dog;
}

TEST(FeSmPin, KeypointsArePinned) {
  Digest d;
  for (const img::Image& im : fe_sm_corpus().images) {
    const auto kps = detect_keypoints(im, pinned_dog());
    d.add(kps.size());
    for (const Keypoint& kp : kps) {
      d.add(kp.x);
      d.add(kp.y);
      d.add(kp.sigma);
      d.add(kp.orientation);
      d.add(kp.response);
      d.add(kp.octave);
      d.add(kp.level);
    }
  }
  EXPECT_EQ(d.value(), 0x230d432cd618bffeULL);
}

TEST(FeSmPin, DescriptorsArePinned) {
  const FeSmCorpus& c = fe_sm_corpus();
  Digest d;
  for (const img::Image& im : c.images) {
    for (const Keypoint& kp : detect_keypoints(im, pinned_dog())) {
      const auto desc = compute_pca_sift(im, kp, c.model, small_patches());
      d.add_all(std::span<const float>(desc));
    }
  }
  EXPECT_EQ(d.value(), 0x94de9a2597a1113fULL);
}

TEST(FeSmPin, SignaturesArePinned) {
  const FeSmCorpus& c = fe_sm_corpus();
  BloomSummarizerConfig cfg;
  cfg.pca_sift = small_patches();
  const BloomSummarizer summarizer(cfg, c.model);
  Digest d;
  for (const img::Image& im : c.images) {
    const auto sig = summarizer.summarize(im);
    d.add_all(std::span<const std::uint32_t>(sig.set_bits()));
  }
  EXPECT_EQ(d.value(), 0x49f5caafbace93ecULL);
}

// The FE kernels keep all scratch per call: four threads summarizing the
// corpus concurrently (as a summarize fan-out does) produce the pinned
// signatures. TSan runs this.
TEST(FeSmPin, ConcurrentSignaturesArePinned) {
  const FeSmCorpus& c = fe_sm_corpus();
  BloomSummarizerConfig cfg;
  cfg.pca_sift = small_patches();
  const BloomSummarizer summarizer(cfg, c.model);
  std::vector<hash::SparseSignature> sigs(c.images.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < c.images.size(); i += 4) {
        sigs[i] = summarizer.summarize(c.images[i]);
      }
    });
  }
  for (auto& th : threads) th.join();
  Digest d;
  for (const auto& sig : sigs) {
    d.add_all(std::span<const std::uint32_t>(sig.set_bits()));
  }
  EXPECT_EQ(d.value(), 0x49f5caafbace93ecULL);
}

// ---------- Matcher ----------

TEST(Matcher, FindsIdenticalFeature) {
  const img::Image im = textured_image(64, 40);
  const auto feats = extract_sift_features(im, 20);
  ASSERT_GE(feats.size(), 3u);
  const auto matches = match_features(feats, feats);
  // Every feature matches itself (distance 0 beats the ratio test).
  EXPECT_EQ(matches.size(), feats.size());
  for (const auto& m : matches) {
    EXPECT_EQ(m.query_idx, m.train_idx);
    EXPECT_NEAR(m.distance, 0.0, 1e-6);
  }
}

TEST(Matcher, EmptyTrainGivesNoMatches) {
  const img::Image im = textured_image(64, 41);
  const auto feats = extract_sift_features(im, 8);
  EXPECT_TRUE(match_features(feats, {}).empty());
}

TEST(Matcher, SimilarityIsHighForNearDuplicate) {
  const img::Image im = textured_image(96, 42);
  util::Rng rng(43);
  img::PerturbParams pp;
  pp.max_rotation_rad = 0.02;
  pp.max_translate_px = 1.0;
  pp.max_noise_stddev = 0.005;
  const img::Image dup = img::make_near_duplicate(im, pp, rng);
  const auto f1 = extract_sift_features(im, 32);
  const auto f2 = extract_sift_features(dup, 32);
  const img::Image other = textured_image(96, 99);
  const auto f3 = extract_sift_features(other, 32);
  const double sim_dup = image_similarity(f1, f2);
  const double sim_other = image_similarity(f1, f3);
  EXPECT_GT(sim_dup, sim_other);
}

}  // namespace
}  // namespace fast::vision

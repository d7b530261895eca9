#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include <gtest/gtest.h>

#include "img/draw.hpp"
#include "img/image.hpp"
#include "img/pnm_io.hpp"
#include "img/transform.hpp"
#include "util/rng.hpp"

namespace fast::img {
namespace {

// ---------- Image ----------

TEST(Image, ConstructionAndFill) {
  Image im(4, 3, 0.5f);
  EXPECT_EQ(im.width(), 4u);
  EXPECT_EQ(im.height(), 3u);
  EXPECT_EQ(im.pixel_count(), 12u);
  EXPECT_EQ(im.at(2, 1), 0.5f);
}

TEST(Image, AtClampedReplicatesBorder) {
  Image im(2, 2);
  im.at(0, 0) = 1.0f;
  im.at(1, 1) = 0.25f;
  EXPECT_EQ(im.at_clamped(-5, -5), 1.0f);
  EXPECT_EQ(im.at_clamped(10, 10), 0.25f);
}

TEST(Image, BilinearInterpolatesMidpoint) {
  Image im(2, 1);
  im.at(0, 0) = 0.0f;
  im.at(1, 0) = 1.0f;
  EXPECT_NEAR(im.sample_bilinear(0.5, 0.0), 0.5f, 1e-6);
}

TEST(Image, BilinearExactAtPixelCenters) {
  Image im(3, 3);
  im.at(1, 1) = 0.7f;
  EXPECT_NEAR(im.sample_bilinear(1.0, 1.0), 0.7f, 1e-6);
}

// Image::sample_bilinear as it was before the interior fast path: four
// clamped reads for every sample.
float reference_sample_bilinear(const Image& im, double x, double y) {
  const double fx = std::floor(x);
  const double fy = std::floor(y);
  const auto x0 = static_cast<std::ptrdiff_t>(fx);
  const auto y0 = static_cast<std::ptrdiff_t>(fy);
  const auto ax = static_cast<float>(x - fx);
  const auto ay = static_cast<float>(y - fy);
  const float v00 = im.at_clamped(x0, y0);
  const float v10 = im.at_clamped(x0 + 1, y0);
  const float v01 = im.at_clamped(x0, y0 + 1);
  const float v11 = im.at_clamped(x0 + 1, y0 + 1);
  const float top = v00 + ax * (v10 - v00);
  const float bot = v01 + ax * (v11 - v01);
  return top + ay * (bot - top);
}

TEST(Image, BilinearMatchesClampedReference) {
  util::Rng rng(5);
  for (std::size_t w : {1, 2, 7}) {
    for (std::size_t h : {1, 3, 8}) {
      Image im(w, h);
      for (float& p : im.pixels()) p = static_cast<float>(rng.uniform(-1, 1));
      for (int i = 0; i < 500; ++i) {
        const double x = rng.uniform(-3.0, static_cast<double>(w) + 3.0);
        const double y = rng.uniform(-3.0, static_cast<double>(h) + 3.0);
        const float got = im.sample_bilinear(x, y);
        const float want = reference_sample_bilinear(im, x, y);
        EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
            << w << "x" << h << " at (" << x << ", " << y << ")";
      }
    }
  }
}

TEST(Image, Clamp01) {
  Image im(2, 1);
  im.at(0, 0) = -0.5f;
  im.at(1, 0) = 1.5f;
  im.clamp01();
  EXPECT_EQ(im.at(0, 0), 0.0f);
  EXPECT_EQ(im.at(1, 0), 1.0f);
}

TEST(Image, Downsample2HalvesDimensions) {
  Image im(8, 6, 0.3f);
  const Image d = im.downsample2();
  EXPECT_EQ(d.width(), 4u);
  EXPECT_EQ(d.height(), 3u);
  EXPECT_EQ(d.at(0, 0), 0.3f);
}

TEST(Image, Upsample2DoublesDimensions) {
  Image im(3, 2, 0.6f);
  const Image u = im.upsample2();
  EXPECT_EQ(u.width(), 6u);
  EXPECT_EQ(u.height(), 4u);
  EXPECT_NEAR(u.at(2, 2), 0.6f, 1e-6);
}

// ---------- PGM I/O ----------

TEST(PnmIo, RoundTrip) {
  Image im(5, 4);
  util::Rng rng(1);
  for (float& p : im.pixels()) p = static_cast<float>(rng.next_double());
  const std::string path =
      (std::filesystem::temp_directory_path() / "fast_test.pgm").string();
  write_pgm(im, path);
  const Image back = read_pgm(path);
  ASSERT_EQ(back.width(), im.width());
  ASSERT_EQ(back.height(), im.height());
  for (std::size_t y = 0; y < im.height(); ++y) {
    for (std::size_t x = 0; x < im.width(); ++x) {
      EXPECT_NEAR(back.at(x, y), im.at(x, y), 1.0 / 255.0 + 1e-6);
    }
  }
  std::remove(path.c_str());
}

TEST(PnmIo, ReadMissingFileThrows) {
  EXPECT_THROW(read_pgm("/nonexistent/nope.pgm"), std::runtime_error);
}

TEST(PnmIo, RejectsNonPgm) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "fast_notpgm.txt").string();
  FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("hello", f);
  std::fclose(f);
  EXPECT_THROW(read_pgm(path), std::runtime_error);
  std::remove(path.c_str());
}

// ---------- Drawing ----------

TEST(Draw, GradientTopToBottom) {
  Image im(2, 5);
  fill_gradient(im, 0.0f, 1.0f);
  EXPECT_EQ(im.at(0, 0), 0.0f);
  EXPECT_EQ(im.at(0, 4), 1.0f);
  EXPECT_LT(im.at(0, 1), im.at(0, 3));
}

TEST(Draw, RectClipped) {
  Image im(4, 4, 0.0f);
  fill_rect(im, -10, -10, 2, 2, 1.0f);
  EXPECT_EQ(im.at(0, 0), 1.0f);
  EXPECT_EQ(im.at(1, 1), 1.0f);
  EXPECT_EQ(im.at(2, 2), 0.0f);
}

TEST(Draw, RectFullyOutsideIsNoop) {
  Image im(4, 4, 0.2f);
  fill_rect(im, 10, 10, 20, 20, 1.0f);
  for (float p : im.pixels()) EXPECT_EQ(p, 0.2f);
}

TEST(Draw, CircleCoversCenter) {
  Image im(9, 9, 0.0f);
  fill_circle(im, 4, 4, 2.5, 1.0f);
  EXPECT_EQ(im.at(4, 4), 1.0f);
  EXPECT_EQ(im.at(4, 6), 1.0f);
  EXPECT_EQ(im.at(0, 0), 0.0f);
}

TEST(Draw, TriangleContainsCentroid) {
  Image im(20, 20, 0.0f);
  fill_triangle(im, 2, 18, 18, 18, 10, 2, 1.0f);
  EXPECT_EQ(im.at(10, 12), 1.0f);  // inside
  EXPECT_EQ(im.at(2, 2), 0.0f);    // outside
}

TEST(Draw, TextureIsDeterministic) {
  Image a(16, 16, 0.5f), b(16, 16, 0.5f);
  add_texture(a, 0, 0, 16, 16, 0.1f, 99);
  add_texture(b, 0, 0, 16, 16, 0.1f, 99);
  for (std::size_t i = 0; i < a.pixel_count(); ++i) {
    EXPECT_EQ(a.pixels()[i], b.pixels()[i]);
  }
}

TEST(Draw, TextureChangesWithSeed) {
  Image a(16, 16, 0.5f), b(16, 16, 0.5f);
  add_texture(a, 0, 0, 16, 16, 0.1f, 1);
  add_texture(b, 0, 0, 16, 16, 0.1f, 2);
  bool different = false;
  for (std::size_t i = 0; i < a.pixel_count(); ++i) {
    if (a.pixels()[i] != b.pixels()[i]) different = true;
  }
  EXPECT_TRUE(different);
}

TEST(Draw, ScatterBlobsStaysInRegion) {
  Image im(20, 20, 0.5f);
  scatter_blobs(im, 5, 5, 15, 15, 10, 1.0, 2.0, 42);
  // Pixels far outside the region + max radius must be untouched.
  EXPECT_EQ(im.at(0, 0), 0.5f);
  EXPECT_EQ(im.at(19, 19), 0.5f);
}

// ---------- Transforms ----------

TEST(Transform, IdentityWarpPreservesImage) {
  Image im(10, 10);
  util::Rng rng(5);
  for (float& p : im.pixels()) p = static_cast<float>(rng.next_double());
  const Image out = warp_affine(im, Affine{});
  for (std::size_t i = 0; i < im.pixel_count(); ++i) {
    EXPECT_NEAR(out.pixels()[i], im.pixels()[i], 1e-6);
  }
}

TEST(Transform, TranslationShiftsContent) {
  Image im(10, 10, 0.0f);
  im.at(5, 5) = 1.0f;
  Affine t;  // in = out + (1, 0): shifts content left by 1
  t.tx = 1.0;
  const Image out = warp_affine(im, t);
  EXPECT_NEAR(out.at(4, 5), 1.0f, 1e-6);
}

TEST(Transform, SimilarityRoundTripNearIdentity) {
  // Rotating by a and then by -a about the same center reproduces the
  // interior of the image (borders clamp). Smooth content so interpolation
  // blur stays small.
  Image im(32, 32, 0.5f);
  add_texture(im, 0, 0, 32, 32, 0.3f, 9);
  const Affine fwd = Affine::similarity(0.3, 1.0, 16, 16);
  const Affine bwd = Affine::similarity(-0.3, 1.0, 16, 16);
  const Image out = warp_affine(warp_affine(im, fwd), bwd);
  double err = 0;
  int n = 0;
  for (std::size_t y = 10; y < 22; ++y) {
    for (std::size_t x = 10; x < 22; ++x) {
      err += std::abs(out.at(x, y) - im.at(x, y));
      ++n;
    }
  }
  EXPECT_LT(err / n, 0.08);  // interpolation blur only
}

TEST(Transform, ComposeMatchesSequentialApplication) {
  const Affine a = Affine::similarity(0.2, 1.1, 8, 8);
  Affine b;
  b.tx = 2.0;
  b.ty = -1.0;
  const Affine ab = a.compose(b);
  // (a ∘ b)(p) == a(b(p))
  const double px = 3.0, py = 4.0;
  const double bx = b.a00 * px + b.a01 * py + b.tx;
  const double by = b.a10 * px + b.a11 * py + b.ty;
  const double ax = a.a00 * bx + a.a01 * by + a.tx;
  const double ay = a.a10 * bx + a.a11 * by + a.ty;
  const double cx = ab.a00 * px + ab.a01 * py + ab.tx;
  const double cy = ab.a10 * px + ab.a11 * py + ab.ty;
  EXPECT_NEAR(ax, cx, 1e-12);
  EXPECT_NEAR(ay, cy, 1e-12);
}

TEST(Transform, NoiseChangesPixelsWithinClamp) {
  Image im(16, 16, 0.5f);
  util::Rng rng(3);
  add_gaussian_noise(im, 0.05, rng);
  bool changed = false;
  for (float p : im.pixels()) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
    if (p != 0.5f) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST(Transform, ZeroNoiseIsNoop) {
  Image im(4, 4, 0.25f);
  util::Rng rng(3);
  add_gaussian_noise(im, 0.0, rng);
  for (float p : im.pixels()) EXPECT_EQ(p, 0.25f);
}

TEST(Transform, IlluminationGainAndBias) {
  Image im(2, 1);
  im.at(0, 0) = 0.4f;
  im.at(1, 0) = 0.9f;
  adjust_illumination(im, 1.2, 0.05);
  EXPECT_NEAR(im.at(0, 0), 0.53f, 1e-5);
  EXPECT_EQ(im.at(1, 0), 1.0f);  // clamped
}

TEST(Transform, NearDuplicateIsDeterministicPerRngState) {
  Image im(24, 24, 0.5f);
  add_texture(im, 0, 0, 24, 24, 0.2f, 7);
  util::Rng r1(11), r2(11);
  const Image a = make_near_duplicate(im, {}, r1);
  const Image b = make_near_duplicate(im, {}, r2);
  for (std::size_t i = 0; i < a.pixel_count(); ++i) {
    EXPECT_EQ(a.pixels()[i], b.pixels()[i]);
  }
}

TEST(Transform, NearDuplicateDiffersFromOriginal) {
  Image im(24, 24, 0.5f);
  add_texture(im, 0, 0, 24, 24, 0.2f, 7);
  util::Rng rng(11);
  const Image dup = make_near_duplicate(im, {}, rng);
  double diff = 0;
  for (std::size_t i = 0; i < im.pixel_count(); ++i) {
    diff += std::abs(dup.pixels()[i] - im.pixels()[i]);
  }
  EXPECT_GT(diff, 0.0);
}

}  // namespace
}  // namespace fast::img

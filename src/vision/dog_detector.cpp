#include "vision/dog_detector.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "util/check.hpp"
#include "util/isa_clones.hpp"

namespace fast::vision {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Marks the strict extrema of one DoG row among their 26 scale-space
/// neighbours: for x in [1, n - 1), flags[x] = 1 iff |c[x]| >= 1e-4 and
/// c[x] lies above every neighbour (c[x] > 0) or below every neighbour
/// (c[x] < 0). `lo`, `c` and `hi` point at the same row of three adjacent
/// levels, `stride` steps one row, and `columns` holds 4 * n floats of
/// scratch.
///
/// "Above every neighbour" is tested as "above their maximum", which is
/// the same test for finite pixels. The maximum is taken per column first:
/// the 8 column values around c[x] (all but c[x] itself), and all 9 for the
/// columns either side, so both loops vectorize.
FAST_AVX2_CLONES
void mark_extrema(const float* lo, const float* c, const float* hi,
                  std::ptrdiff_t stride, std::size_t n,
                  float* __restrict columns, unsigned char* __restrict flags) {
  float* __restrict ring_max = columns;
  float* __restrict ring_min = columns + n;
  float* __restrict all_max = columns + 2 * n;
  float* __restrict all_min = columns + 3 * n;
  const float* const rows[8] = {lo - stride, lo, lo + stride, c - stride,
                                c + stride,  hi - stride, hi, hi + stride};
  auto larger = [](float a, float b) { return a > b ? a : b; };
  auto smaller = [](float a, float b) { return a < b ? a : b; };
  for (std::size_t x = 0; x < n; ++x) {
    float most = rows[0][x];
    float least = most;
    for (std::size_t r = 1; r < 8; ++r) {
      most = larger(rows[r][x], most);
      least = smaller(rows[r][x], least);
    }
    ring_max[x] = most;
    ring_min[x] = least;
    all_max[x] = larger(c[x], most);
    all_min[x] = smaller(c[x], least);
  }
  for (std::size_t x = 1; x + 1 < n; ++x) {
    const float most =
        larger(ring_max[x], larger(all_max[x - 1], all_max[x + 1]));
    const float least =
        smaller(ring_min[x], smaller(all_min[x - 1], all_min[x + 1]));
    // Tiny responses are dropped early; the full contrast check happens
    // after refine.
    const float v = c[x];
    const bool big = !(std::fabs(v) < 1e-4f);
    const bool pos = v > 0;
    flags[x] = big & ((pos & (most < v)) | (!pos & (least > v)));
  }
}

/// The 3 x 3 x 3 DoG neighbourhood of one scale-space sample: `c` points
/// at the sample in its level, `lo` and `hi` at the same pixel one level
/// down and up, and `stride` steps one row.
struct Neighbourhood {
  const float* lo;
  const float* c;
  const float* hi;
  std::ptrdiff_t stride;
};

struct Refined {
  bool ok = false;
  double dx = 0, dy = 0, ds = 0;  // sub-pixel offsets
  double value = 0;               // interpolated |DoG|
};

/// One Newton step on the 3-D quadratic fit around the sample.
Refined refine(const Neighbourhood& n) {
  const float* c = n.c;
  const float* lo = n.lo;
  const float* hi = n.hi;
  const std::ptrdiff_t w = n.stride;
  const double v = c[0];

  const double gx = 0.5 * (c[1] - c[-1]);
  const double gy = 0.5 * (c[w] - c[-w]);
  const double gs = 0.5 * (hi[0] - lo[0]);

  const double hxx = c[1] - 2 * v + c[-1];
  const double hyy = c[w] - 2 * v + c[-w];
  const double hss = hi[0] - 2 * v + lo[0];
  const double hxy = 0.25 * (c[w + 1] - c[w - 1] - c[-w + 1] + c[-w - 1]);
  const double hxs = 0.25 * (hi[1] - hi[-1] - lo[1] + lo[-1]);
  const double hys = 0.25 * (hi[w] - hi[-w] - lo[w] + lo[-w]);

  // Solve H * d = -g with Cramer's rule on the symmetric 3x3 Hessian.
  const double det = hxx * (hyy * hss - hys * hys) -
                     hxy * (hxy * hss - hys * hxs) +
                     hxs * (hxy * hys - hyy * hxs);
  Refined r;
  if (std::fabs(det) < 1e-12) return r;
  const double inv = 1.0 / det;
  const double i00 = (hyy * hss - hys * hys) * inv;
  const double i01 = (hxs * hys - hxy * hss) * inv;
  const double i02 = (hxy * hys - hxs * hyy) * inv;
  const double i11 = (hxx * hss - hxs * hxs) * inv;
  const double i12 = (hxs * hxy - hxx * hys) * inv;
  const double i22 = (hxx * hyy - hxy * hxy) * inv;
  r.dx = -(i00 * gx + i01 * gy + i02 * gs);
  r.dy = -(i01 * gx + i11 * gy + i12 * gs);
  r.ds = -(i02 * gx + i12 * gy + i22 * gs);
  // Diverging fit means the true extremum belongs to a neighboring sample.
  if (std::fabs(r.dx) > 1.5 || std::fabs(r.dy) > 1.5 || std::fabs(r.ds) > 1.5) {
    return r;
  }
  r.value = v + 0.5 * (gx * r.dx + gy * r.dy + gs * r.ds);
  r.ok = true;
  return r;
}

/// Principal-curvature edge test: keeps blob-like extrema only.
bool passes_edge_test(const Neighbourhood& n, double edge_ratio) {
  const float* c = n.c;
  const std::ptrdiff_t w = n.stride;
  const double v = c[0];
  const double hxx = c[1] - 2 * v + c[-1];
  const double hyy = c[w] - 2 * v + c[-w];
  const double hxy = 0.25 * (c[w + 1] - c[w - 1] - c[-w + 1] + c[-w - 1]);
  const double tr = hxx + hyy;
  const double det = hxx * hyy - hxy * hxy;
  if (det <= 0) return false;  // saddle: curvatures of opposite sign
  const double r = edge_ratio;
  return tr * tr / det < (r + 1) * (r + 1) / r;
}

}  // namespace

double dominant_orientation(const img::Image& gaussian, double x_oct,
                            double y_oct, double sigma_oct) {
  constexpr int kBins = 36;
  double hist[kBins] = {};
  const double win_sigma = 1.5 * sigma_oct;
  const int radius = std::max(1, static_cast<int>(std::lround(3.0 * win_sigma)));
  const auto cx = static_cast<std::ptrdiff_t>(std::lround(x_oct));
  const auto cy = static_cast<std::ptrdiff_t>(std::lround(y_oct));
  const double inv_two_sigma2 = 1.0 / (2.0 * win_sigma * win_sigma);
  // The window weight depends on |dx| and |dy| only: one exp per distinct
  // pair, weights[|dy| * (radius + 1) + |dx|].
  const auto side = static_cast<std::size_t>(radius + 1);
  std::vector<double> weights(side * side);
  for (int ay = 0; ay <= radius; ++ay) {
    for (int ax = 0; ax <= radius; ++ax) {
      weights[static_cast<std::size_t>(ay) * side +
              static_cast<std::size_t>(ax)] =
          std::exp(-static_cast<double>(ax * ax + ay * ay) * inv_two_sigma2);
    }
  }

  const auto w = static_cast<std::ptrdiff_t>(gaussian.width());
  const auto h = static_cast<std::ptrdiff_t>(gaussian.height());
  for (int dy = -radius; dy <= radius; ++dy) {
    const std::ptrdiff_t py = cy + dy;
    const double* wrow =
        weights.data() + static_cast<std::size_t>(std::abs(dy)) * side;
    // Rows py - 1 .. py + 1 inside the image: interior pixels of this row
    // read their four neighbours without clamping.
    const bool rows_inside = py >= 1 && py + 1 < h;
    const float* row = rows_inside ? gaussian.row(static_cast<std::size_t>(py))
                                   : nullptr;
    for (int dx = -radius; dx <= radius; ++dx) {
      const std::ptrdiff_t px = cx + dx;
      double gx, gy;
      if (rows_inside && px >= 1 && px + 1 < w) {
        const float* p = row + px;
        gx = p[1] - p[-1];
        gy = p[w] - p[-w];
      } else {
        gx = gaussian.at_clamped(px + 1, py) - gaussian.at_clamped(px - 1, py);
        gy = gaussian.at_clamped(px, py + 1) - gaussian.at_clamped(px, py - 1);
      }
      const double mag = std::sqrt(gx * gx + gy * gy);
      if (mag <= 0) continue;
      const double wgt = wrow[std::abs(dx)];
      double angle = std::atan2(gy, gx);  // [-pi, pi]
      if (angle < 0) angle += 2 * kPi;
      int bin = static_cast<int>(angle / (2 * kPi) * kBins);
      bin = std::clamp(bin, 0, kBins - 1);
      hist[bin] += wgt * mag;
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

std::vector<Keypoint> detect_keypoints(const img::Image& image,
                                       const DogConfig& config) {
  const Pyramid pyr = build_pyramid(image, config.pyramid);
  std::vector<Keypoint> keypoints;
  const int s = config.pyramid.scales_per_octave;
  const double k = std::pow(2.0, 1.0 / static_cast<double>(s));

  for (std::size_t o = 0; o < pyr.octaves.size(); ++o) {
    const Octave& oct = pyr.octaves[o];
    const std::size_t w = oct.dogs.front().width();
    const std::size_t h = oct.dogs.front().height();
    if (w < 8 || h < 8) continue;
    for (std::size_t l = 1; l + 1 < oct.dogs.size(); ++l) {
      const img::Image& lo = oct.dogs[l - 1];
      const img::Image& c = oct.dogs[l];
      const img::Image& hi = oct.dogs[l + 1];
      FAST_CHECK(lo.width() == w && lo.height() == h && c.width() == w &&
                 c.height() == h && hi.width() == w && hi.height() == h);
      const auto stride = static_cast<std::ptrdiff_t>(w);
      std::vector<float> columns(4 * w);
      std::vector<unsigned char> flags(w);
      for (std::size_t y = 1; y + 1 < h; ++y) {
        // Rows y - 1 .. y + 1 of all three planes lie inside the octave, so
        // every neighbour of x in [1, w - 1) does too.
        mark_extrema(lo.row(y), c.row(y), hi.row(y), stride, w, columns.data(),
                     flags.data());
        for (std::size_t x = 1; x + 1 < w; ++x) {
          if (!flags[x]) continue;
          const Neighbourhood n{lo.row(y) + x, c.row(y) + x, hi.row(y) + x,
                                stride};
          const Refined r = refine(n);
          if (!r.ok) continue;
          if (std::fabs(r.value) < config.contrast_threshold) continue;
          if (!passes_edge_test(n, config.edge_ratio)) continue;

          Keypoint kp;
          const double x_oct = static_cast<double>(x) + r.dx;
          const double y_oct = static_cast<double>(y) + r.dy;
          kp.x = x_oct * oct.downsample;
          kp.y = y_oct * oct.downsample;
          const double level_sigma =
              config.pyramid.base_sigma *
              std::pow(k, static_cast<double>(l) + r.ds);
          kp.sigma = level_sigma * oct.downsample;
          kp.response = static_cast<float>(std::fabs(r.value));
          kp.octave = static_cast<int>(o);
          kp.level = static_cast<int>(l);
          if (config.assign_orientation) {
            kp.orientation =
                dominant_orientation(oct.gaussians[l], x_oct, y_oct,
                                     level_sigma);
          }
          keypoints.push_back(kp);
        }
      }
    }
  }

  std::sort(keypoints.begin(), keypoints.end(),
            [](const Keypoint& a, const Keypoint& b) {
              return a.response > b.response;
            });
  if (config.max_keypoints > 0 && keypoints.size() > config.max_keypoints) {
    keypoints.resize(config.max_keypoints);
  }
  return keypoints;
}

}  // namespace fast::vision

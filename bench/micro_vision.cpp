// Google-benchmark micro suite for the vision substrate: Gaussian
// filtering, pyramid construction, DoG detection, the two descriptors and
// the Jacobi eigensolver behind PCA-SIFT training.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>

#include "img/draw.hpp"
#include "util/vecmath.hpp"
#include "vision/dog_detector.hpp"
#include "vision/gaussian.hpp"
#include "vision/matcher.hpp"
#include "vision/pca_sift.hpp"
#include "vision/pyramid.hpp"
#include "vision/sift_descriptor.hpp"
#include "workload/scene_generator.hpp"

namespace {

using namespace fast;

img::Image bench_image(std::size_t n) {
  img::Image im(n, n, 0.5f);
  img::add_texture(im, 0, 0, static_cast<std::ptrdiff_t>(n),
                   static_cast<std::ptrdiff_t>(n), 0.25f, 11);
  img::scatter_blobs(im, 0, 0, static_cast<std::ptrdiff_t>(n),
                     static_cast<std::ptrdiff_t>(n), n / 2, 1.5, 3.0, 12);
  im.clamp01();
  return im;
}

void BM_GaussianBlur(benchmark::State& state) {
  const img::Image im = bench_image(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(vision::gaussian_blur(im, 1.6));
  }
}
BENCHMARK(BM_GaussianBlur)->Arg(64)->Arg(128)->Arg(256);

void BM_BuildPyramid(benchmark::State& state) {
  const img::Image im = bench_image(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(vision::build_pyramid(im));
  }
}
BENCHMARK(BM_BuildPyramid)->Arg(64)->Arg(128);

void BM_DetectKeypoints(benchmark::State& state) {
  const img::Image im = bench_image(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(vision::detect_keypoints(im));
  }
}
BENCHMARK(BM_DetectKeypoints)->Arg(96)->Arg(128);

void BM_SiftDescriptor(benchmark::State& state) {
  const img::Image im = bench_image(128);
  const auto kps = vision::detect_keypoints(im);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vision::compute_sift(im, kps[i++ % kps.size()]));
  }
}
BENCHMARK(BM_SiftDescriptor);

void BM_PcaSiftDescriptor(benchmark::State& state) {
  const img::Image im = bench_image(128);
  const auto kps = vision::detect_keypoints(im);
  std::vector<img::Image> sample{im, bench_image(96)};
  const vision::PcaModel model = vision::train_pca_sift(sample, {}, 300);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vision::compute_pca_sift(im, kps[i++ % kps.size()], model));
  }
}
BENCHMARK(BM_PcaSiftDescriptor);

void BM_MatchFeatures(benchmark::State& state) {
  const img::Image a = bench_image(128);
  const img::Image b = bench_image(96);
  const auto fa = vision::extract_sift_features(a, 64);
  const auto fb = vision::extract_sift_features(b, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vision::match_features(fa, fb));
  }
}
BENCHMARK(BM_MatchFeatures);

// The cyclic Jacobi loop as it was before the column rotations were
// deferred, kept verbatim as the timing baseline and the parity reference.
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

struct Covariance {
  std::vector<double> values;  ///< row-major n x n
  std::size_t n = 0;
};

// The covariance servebench's search_real trains on: PCA-SIFT patches
// (d = 578) from the first 16 Wuhan photos, capped at 1,500.
const Covariance& servebench_covariance() {
  static const Covariance cov = [] {
    const auto dataset =
        workload::SceneGenerator(workload::DatasetSpec::wuhan(16)).generate();
    std::vector<img::Image> sample;
    for (const auto& photo : dataset.photos) sample.push_back(photo.image);
    const auto patches = vision::training_patches(sample, {}, 1500);
    return Covariance{
        vision::covariance_matrix(patches, util::mean_vector(patches)),
        patches.front().size()};
  }();
  return cov;
}

struct Eigen {
  std::vector<double> values;
  std::vector<std::vector<double>> vectors;
};

const Eigen& reference_eigen() {
  static const Eigen ref = [] {
    const Covariance& cov = servebench_covariance();
    Eigen e;
    reference_jacobi(cov.values, cov.n, e.values, e.vectors, 64);
    return e;
  }();
  return ref;
}

bool same_bits(const Eigen& x, const Eigen& y) {
  if (x.values.size() != y.values.size()) return false;
  if (std::memcmp(x.values.data(), y.values.data(),
                  x.values.size() * sizeof(double)) != 0) {
    return false;
  }
  for (std::size_t k = 0; k < x.vectors.size(); ++k) {
    if (std::memcmp(x.vectors[k].data(), y.vectors[k].data(),
                    x.vectors[k].size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

void BM_JacobiEigenReference(benchmark::State& state) {
  const Covariance& cov = servebench_covariance();
  for (auto _ : state) {
    Eigen e;
    reference_jacobi(cov.values, cov.n, e.values, e.vectors, 64);
    benchmark::DoNotOptimize(e.values.data());
  }
  state.counters["d"] = static_cast<double>(cov.n);
}
BENCHMARK(BM_JacobiEigenReference)->Unit(benchmark::kMillisecond);

// The deferred-rotation solver on 1, 2 and 4 workers; any bit that differs
// from the reference loop aborts the run.
void BM_JacobiEigen(benchmark::State& state) {
  const Covariance& cov = servebench_covariance();
  const Eigen& ref = reference_eigen();
  const auto workers = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    Eigen e;
    vision::detail::jacobi_eigen_symmetric(cov.values, cov.n, e.values,
                                           e.vectors, 64, workers);
    benchmark::DoNotOptimize(e.values.data());
    if (!same_bits(e, ref)) {
      std::fprintf(stderr, "Jacobi on %u workers differs from the reference\n",
                   workers);
      std::abort();
    }
  }
  state.counters["d"] = static_cast<double>(cov.n);
}
BENCHMARK(BM_JacobiEigen)
    ->ArgName("workers")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

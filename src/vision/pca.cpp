#include "vision/pca.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "util/check.hpp"
#include "util/isa_clones.hpp"
#include "util/vecmath.hpp"

namespace fast::vision {

std::vector<float> PcaModel::project(std::span<const float> x) const {
  FAST_CHECK(x.size() == mean.size());
  const std::size_t d = x.size();
  std::vector<float> centered(d);
  for (std::size_t i = 0; i < d; ++i) centered[i] = x[i] - mean[i];
  std::vector<float> out(components.size());
  // Four components at a time: four independent sums, each still adding
  // its products in input order, as util::dot does for one.
  constexpr std::size_t kChains = 4;
  std::size_t c = 0;
  for (; c + kChains <= components.size(); c += kChains) {
    const float* rows[kChains];
    for (std::size_t j = 0; j < kChains; ++j) {
      FAST_CHECK(components[c + j].size() == d);
      rows[j] = components[c + j].data();
    }
    double acc[kChains] = {};
    for (std::size_t i = 0; i < d; ++i) {
      const auto xi = static_cast<double>(centered[i]);
      for (std::size_t j = 0; j < kChains; ++j) {
        acc[j] += static_cast<double>(rows[j][i]) * xi;
      }
    }
    for (std::size_t j = 0; j < kChains; ++j) {
      out[c + j] = static_cast<float>(acc[j]);
    }
  }
  for (; c < components.size(); ++c) {
    out[c] = static_cast<float>(util::dot(components[c], centered));
  }
  return out;
}

std::vector<float> PcaModel::reconstruct(
    std::span<const float> projected) const {
  FAST_CHECK(projected.size() == components.size());
  std::vector<float> out(mean.begin(), mean.end());
  for (std::size_t c = 0; c < components.size(); ++c) {
    const float w = projected[c];
    const auto& comp = components[c];
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += w * comp[i];
  }
  return out;
}

namespace {

// The two replay kernels run as AVX2 and baseline clones. No clone may
// enable FMA, because a fused c*x - s*y rounds once where the cyclic loop
// rounds twice; this file is also compiled with -ffp-contract=off.

/// One rotation (p, q) of a sweep, logged for deferred replay.
struct Rotation {
  std::uint32_t p;
  std::uint32_t q;
  double c;
  double s;
};

/// One Jacobi rotation applied elementwise to two runs of equal length:
///   x[i] = c*x[i] - s*y[i],  y[i] = s*x[i] + c*y[i]  (old x[i] on the right).
/// Rotates the rows p and q of A, and of V^T.
FAST_AVX2_CLONES
void rotate_runs(double* __restrict x, double* __restrict y, std::size_t len,
                 double c, double s) {
  for (std::size_t i = 0; i < len; ++i) {
    const double xi = x[i];
    const double yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

/// Replays the column rotations log[from, to) on one row of A. A column
/// rotation (p, q) touches only A(i,p) and A(i,q) of each row i, so a row
/// replays independently of every other row, and each of its elements sees
/// the operations of the cyclic loop in the same order. A(i,p) stays in a
/// register while the log's p does not change.
void replay_row(double* row, const Rotation* log, std::size_t from,
                std::size_t to) {
  if (from >= to) return;
  std::uint32_t p = log[from].p;
  double x = row[p];
  for (std::size_t k = from; k < to; ++k) {
    const Rotation& e = log[k];
    if (e.p != p) {
      row[p] = x;
      p = e.p;
      x = row[p];
    }
    const double y = row[e.q];
    row[e.q] = e.s * x + e.c * y;
    x = e.c * x - e.s * y;
  }
  row[p] = x;
}

/// Rows replayed together by replay_rows8.
constexpr std::size_t kGroup = 8;

/// Helper threads are only worth their wake-ups above this dimension.
constexpr std::size_t kMinThreadedDim = 128;

using v4d = double __attribute__((vector_size(32)));

/// Lane j of `v` is element `col` of rows[j].
inline void gather4(double* const* rows, std::uint32_t col, v4d& v) {
  v = v4d{rows[0][col], rows[1][col], rows[2][col], rows[3][col]};
}

inline void scatter4(double* const* rows, std::uint32_t col, const v4d& v) {
  for (std::size_t j = 0; j < 4; ++j) rows[j][col] = v[j];
}

/// replay_row on eight rows at once, four rows to a vector. Lane j of each
/// vector does exactly the scalar operations on its row.
FAST_AVX2_CLONES
void replay_rows8(double* const* rows, const Rotation* log, std::size_t from,
                  std::size_t to) {
  if (from >= to) return;
  double* const* lo = rows;
  double* const* hi = rows + 4;
  std::uint32_t p = log[from].p;
  v4d x0;
  v4d x1;
  gather4(lo, p, x0);
  gather4(hi, p, x1);
  for (std::size_t k = from; k < to; ++k) {
    const Rotation& e = log[k];
    if (e.p != p) {
      scatter4(lo, p, x0);
      scatter4(hi, p, x1);
      p = e.p;
      gather4(lo, p, x0);
      gather4(hi, p, x1);
    }
    v4d y0;
    v4d y1;
    gather4(lo, e.q, y0);
    gather4(hi, e.q, y1);
    scatter4(lo, e.q, e.s * x0 + e.c * y0);
    scatter4(hi, e.q, e.s * x1 + e.c * y1);
    x0 = e.c * x0 - e.s * y0;
    x1 = e.c * x1 - e.s * y1;
  }
  scatter4(lo, p, x0);
  scatter4(hi, p, x1);
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Spins briefly, then sleeps in atomic::wait, until `flag` != `old`.
template <typename T>
void await_change(const std::atomic<T>& flag, T old) {
  for (int i = 0; i < 1024; ++i) {
    if (flag.load(std::memory_order_acquire) != old) return;
    cpu_relax();
  }
  while (flag.load(std::memory_order_acquire) == old) {
    flag.wait(old, std::memory_order_acquire);
  }
}

/// Cyclic Jacobi with the column rotations deferred.
///
/// The cyclic loop applies each rotation (p, q) to the columns p, q of A
/// (strided), the rows p, q of A (contiguous) and the columns p, q of V
/// (strided). Here the column rotations are only logged, and a row of A
/// replays the log when it is next read. Block p (pivot row p with all its
/// q) reads rows p and q > p, so those rows catch up just before they are
/// rotated; rows < p are not read again this sweep and catch up at its end.
/// V has no row operations, so it is kept transposed and its column
/// rotations become contiguous row rotations of V^T. Every element of A
/// and V sees the same operations on the same operands in the same order
/// as in the cyclic loop, so the result is bit-identical to it.
///
/// With helpers, the rows a finished block leaves behind and the columns of
/// V^T replay on helper threads while the caller runs the next blocks. Each
/// helper owns fixed row groups and V^T column slices, so its data stays in
/// its own cache. The split changes who computes an element, never how, so
/// the result does not depend on the number of workers.
class DeferredJacobi {
 public:
  DeferredJacobi(std::vector<double>& a, std::size_t n, unsigned workers)
      : a_(a),
        n_(n),
        vt_(n * n, 0.0),
        done_(n, 0),
        helper_count_(workers - 1),
        acked_(workers - 1) {
    for (std::size_t i = 0; i < n; ++i) vt_[i * n + i] = 1.0;
    log_.reserve(n * (n - 1) / 2);
    // Four V^T slices per worker, each a whole number of cache lines.
    const std::size_t slices = 4 * std::max<std::size_t>(1, helper_count_);
    slice_cols_ = ((n + slices - 1) / slices + 7) / 8 * 8;
    helpers_.reserve(helper_count_);
    try {
      for (std::size_t h = 0; h < helper_count_; ++h) {
        helpers_.emplace_back([this, h] { helper_loop(h); });
      }
    } catch (...) {
      stop_helpers();
      throw;
    }
  }

  DeferredJacobi(const DeferredJacobi&) = delete;
  DeferredJacobi& operator=(const DeferredJacobi&) = delete;

  ~DeferredJacobi() { stop_helpers(); }

  void run(int max_sweeps) {
    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
      // Sum of squares of the strict upper triangle: convergence measure.
      double off = 0.0;
      for (std::size_t p = 0; p < n_; ++p) {
        for (std::size_t q = p + 1; q < n_; ++q) off += A(p, q) * A(p, q);
      }
      if (off < 1e-20) break;
      run_sweep();
    }
  }

  /// V^T; row k is the eigenvector of diagonal entry k of A.
  const std::vector<double>& vt() const { return vt_; }

 private:
  double& A(std::size_t r, std::size_t c) { return a_[r * n_ + c]; }
  double* row(std::size_t r) { return &a_[r * n_]; }

  void run_sweep() {
    log_.clear();
    std::fill(done_.begin(), done_.end(), 0);
    for (std::size_t p = 0; p < n_; ++p) {
      // Row p is current through the block: it takes each rotation as it
      // is made.
      catch_up(p);
      for (std::size_t q = p + 1; q < n_; ++q) {
        const double apq = A(p, q);
        if (std::fabs(apq) < 1e-30) continue;
        catch_up(q);
        const double app = A(p, p);
        const double aqq = A(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        // Stable tangent of the rotation angle.
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        log_.push_back({static_cast<std::uint32_t>(p),
                        static_cast<std::uint32_t>(q), c, s});

        // The column rotation of rows p and q, then the row rotation.
        const std::size_t k = log_.size() - 1;
        replay_row(row(p), log_.data(), k, k + 1);
        replay_row(row(q), log_.data(), k, k + 1);
        done_[p] = done_[q] = k + 1;
        rotate_runs(row(p), row(q), n_, c, s);
      }
      // Rows 0..p are not read again this sweep.
      if (helper_count_ > 0) publish(p + 1);
    }
    if (helper_count_ > 0) {
      wait_for_helpers();
    } else {
      for (std::size_t g = 0; g * kGroup < n_; ++g) {
        replay_row_group(g, log_.size());
      }
      for (std::size_t c0 = 0; c0 < n_; c0 += slice_cols_) {
        replay_vt_slice(c0, 0, log_.size());
      }
    }
  }

  /// Brings row r up to date. A row far behind takes the next rows with it
  /// (they are read next), eight rows to a vector kernel; a few entries
  /// behind, it replays alone.
  void catch_up(std::size_t r) {
    const std::size_t to = log_.size();
    if (done_[r] + kGroup >= to || r + kGroup > n_) {
      replay_row(row(r), log_.data(), done_[r], to);
      done_[r] = to;
      return;
    }
    replay_rows(r, to);
  }

  /// Replays rows [r, r + kGroup) to `to`: each row alone up to the group's
  /// furthest row, then all eight together.
  void replay_rows(std::size_t r, std::size_t to) {
    std::size_t level = 0;
    for (std::size_t j = 0; j < kGroup; ++j) {
      level = std::max(level, std::min(done_[r + j], to));
    }
    double* rows[kGroup];
    for (std::size_t j = 0; j < kGroup; ++j) {
      rows[j] = row(r + j);
      replay_row(rows[j], log_.data(), done_[r + j], level);
      done_[r + j] = to;
    }
    replay_rows8(rows, log_.data(), level, to);
  }

  /// Replays row group g, rows the caller has handed over, to `to`.
  void replay_row_group(std::size_t g, std::size_t to) {
    const std::size_t first = g * kGroup;
    if (first + kGroup <= n_) {
      replay_rows(first, to);
      return;
    }
    for (std::size_t r = first; r < n_; ++r) {
      replay_row(row(r), log_.data(), done_[r], to);
      done_[r] = to;
    }
  }

  /// Applies log[from, to) to columns [c0, c0 + slice_cols_) of V^T.
  void replay_vt_slice(std::size_t c0, std::size_t from, std::size_t to) {
    const std::size_t len = std::min(slice_cols_, n_ - c0);
    for (std::size_t k = from; k < to; ++k) {
      const Rotation& e = log_[k];
      rotate_runs(&vt_[e.p * n_ + c0], &vt_[e.q * n_ + c0], len, e.c, e.s);
    }
  }

  /// Hands rows [0, rows) and the log so far to the helpers.
  void publish(std::size_t rows) {
    pub_len_.store(log_.size(), std::memory_order_release);
    pub_rows_.store(rows, std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
  }

  /// Waits until every helper has replayed the whole sweep; the caller then
  /// owns all of A and V^T again.
  void wait_for_helpers() {
    const std::uint32_t target = epoch_.load(std::memory_order_relaxed);
    for (auto& acked : acked_) {
      for (std::uint32_t e; (e = acked.load(std::memory_order_acquire)) !=
                            target;) {
        await_change(acked, e);
      }
    }
    // The next sweep's log starts from zero; the next publication tells
    // the helpers.
    sweep_.fetch_add(1, std::memory_order_relaxed);
  }

  void helper_loop(std::size_t h) {
    std::uint32_t seen = 0;
    std::size_t sweep = 0;
    std::size_t vt_done = 0;  // log entries applied to this helper's slices
    for (;;) {
      await_change(epoch_, seen);
      seen = epoch_.load(std::memory_order_acquire);
      if (stop_.load(std::memory_order_acquire)) return;
      if (const std::size_t now = sweep_.load(std::memory_order_relaxed);
          now != sweep) {
        sweep = now;
        vt_done = 0;
      }
      // rows first: its release follows the matching pub_len_ store.
      const std::size_t rows = pub_rows_.load(std::memory_order_acquire);
      const std::size_t len = pub_len_.load(std::memory_order_acquire);
      // Whole groups whose rows have all been handed over; at sweep end
      // (rows == n) the last, short group too.
      const std::size_t groups =
          rows == n_ ? (n_ + kGroup - 1) / kGroup : rows / kGroup;
      for (std::size_t g = h; g < groups; g += helper_count_) {
        replay_row_group(g, len);
      }
      for (std::size_t c0 = h * slice_cols_; c0 < n_;
           c0 += helper_count_ * slice_cols_) {
        replay_vt_slice(c0, vt_done, len);
      }
      vt_done = len;
      acked_[h].store(seen, std::memory_order_release);
      acked_[h].notify_one();
    }
  }

  void stop_helpers() noexcept {
    if (helpers_.empty()) return;
    stop_.store(true, std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    for (auto& t : helpers_) t.join();
    helpers_.clear();
  }

  std::vector<double>& a_;
  const std::size_t n_;
  std::vector<double> vt_;
  /// The sweep's rotations, in the cyclic loop's order.
  std::vector<Rotation> log_;
  /// Per row of A: how many log entries it has replayed.
  std::vector<std::size_t> done_;
  std::size_t slice_cols_ = 0;

  // Hand-over to the helpers: rows [0, pub_rows_) and log [0, pub_len_).
  const std::size_t helper_count_;
  std::atomic<std::size_t> pub_rows_{0};
  std::atomic<std::size_t> pub_len_{0};
  std::atomic<std::size_t> sweep_{0};
  std::atomic<std::uint32_t> epoch_{0};
  std::vector<std::atomic<std::uint32_t>> acked_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> helpers_;
};

/// Workers for an n x n solve: one per available CPU, at most four.
unsigned default_workers(std::size_t n) {
  if (n < kMinThreadedDim) return 1;
  unsigned cpus = std::thread::hardware_concurrency();
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = static_cast<unsigned>(CPU_COUNT(&set));
  }
#endif
  return std::clamp(cpus, 1u, 4u);
}

}  // namespace

void jacobi_eigen_symmetric(std::vector<double> a, std::size_t n,
                            std::vector<double>& eigenvalues,
                            std::vector<std::vector<double>>& eigenvectors,
                            int max_sweeps) {
  detail::jacobi_eigen_symmetric(std::move(a), n, eigenvalues, eigenvectors,
                                 max_sweeps, default_workers(n));
}

namespace detail {

void jacobi_eigen_symmetric(std::vector<double> a, std::size_t n,
                            std::vector<double>& eigenvalues,
                            std::vector<std::vector<double>>& eigenvectors,
                            int max_sweeps, unsigned workers) {
  FAST_CHECK(n < (std::size_t{1} << 32));  // rotations log p, q as 32 bits
  FAST_CHECK(a.size() == n * n);
  FAST_CHECK(workers >= 1);
  DeferredJacobi solver(a, n, workers);
  solver.run(max_sweeps);
  const std::vector<double>& vt = solver.vt();

  // Collect eigenpairs and sort by descending eigenvalue.
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
    std::copy_n(&vt[col * n], n, eigenvectors[k].begin());
  }
}

}  // namespace detail

std::vector<double> covariance_matrix(
    std::span<const std::vector<float>> samples, std::span<const float> mean) {
  FAST_CHECK_MSG(samples.size() >= 2, "covariance needs at least two samples");
  const std::size_t d = mean.size();
  // Upper triangle, then mirrored.
  std::vector<double> cov(d * d, 0.0);
  std::vector<double> centered(d);
  for (const auto& s : samples) {
    FAST_CHECK(s.size() == d);
    for (std::size_t i = 0; i < d; ++i) {
      centered[i] = static_cast<double>(s[i]) - static_cast<double>(mean[i]);
    }
    for (std::size_t i = 0; i < d; ++i) {
      const double ci = centered[i];
      for (std::size_t j = i; j < d; ++j) {
        cov[i * d + j] += ci * centered[j];
      }
    }
  }
  const double inv_n = 1.0 / static_cast<double>(samples.size() - 1);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = i; j < d; ++j) {
      cov[i * d + j] *= inv_n;
      cov[j * d + i] = cov[i * d + j];
    }
  }
  return cov;
}

PcaModel train_pca(std::span<const std::vector<float>> samples,
                   std::size_t output_dim) {
  FAST_CHECK_MSG(samples.size() >= 2, "PCA needs at least two samples");
  const std::size_t d = samples.front().size();
  FAST_CHECK(output_dim >= 1 && output_dim <= d);

  PcaModel model;
  model.mean = util::mean_vector(samples);

  std::vector<double> evals;
  std::vector<std::vector<double>> evecs;
  jacobi_eigen_symmetric(covariance_matrix(samples, model.mean), d, evals,
                         evecs);

  model.components.resize(output_dim);
  model.eigenvalues.resize(output_dim);
  for (std::size_t k = 0; k < output_dim; ++k) {
    model.eigenvalues[k] = static_cast<float>(std::max(0.0, evals[k]));
    model.components[k].resize(d);
    for (std::size_t i = 0; i < d; ++i) {
      model.components[k][i] = static_cast<float>(evecs[k][i]);
    }
  }
  return model;
}

}  // namespace fast::vision

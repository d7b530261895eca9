// Lightweight in-process metrics: named counters, gauges and fixed-bucket
// histograms behind a registry with JSON export.
//
// The paper's headline claims are quantitative (near-real-time latency,
// bounded probe counts, ~3-orders-lower rehash probability, multicore
// speedup), so every pipeline stage reports what it did — FE/SM timing, SA
// key derivations, CHS probe distributions and occupancy, the flat index's
// lock and the sharded frontend's fan-out — into one registry that benches
// dump next to their results (DESIGN.md §3b lists the names).
//
// Concurrency model: instruments are registered under a mutex (slow path,
// once per name) and returned by stable reference; every update afterwards
// is a relaxed atomic operation, safe from any thread and never a
// synchronization point. Hot paths cache the returned pointers so queries
// racing through a backend's shared locks do not touch the registry mutex
// at all.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fast::util {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value (load factors, sizes, bytes).
class Gauge {
 public:
  void set(double v) noexcept {
    bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
  }
  double value() const noexcept {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  std::atomic<std::uint64_t> bits_{std::bit_cast<std::uint64_t>(0.0)};
};

/// Fixed-bucket histogram: observations land in the first bucket whose
/// upper bound is >= the value, or in the overflow bucket. Bounds are fixed
/// at registration, so observe() is one binary search plus relaxed atomic
/// increments — no allocation, no locking.
class Histogram {
 public:
  /// `bounds` are inclusive upper bounds, strictly ascending.
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept;

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept {
    return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
  }
  double min() const noexcept;
  double max() const noexcept;
  /// Count in bucket `i` (i == bounds().size() is the overflow bucket).
  std::uint64_t bucket_count(std::size_t i) const noexcept {
    return counts_[i].load(std::memory_order_relaxed);
  }
  double mean() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{std::bit_cast<std::uint64_t>(0.0)};
  std::atomic<std::uint64_t> min_bits_;
  std::atomic<std::uint64_t> max_bits_;
};

/// Point-in-time copy of every instrument, safe to read and serialize while
/// the live registry keeps updating.
struct MetricsSnapshot {
  struct HistogramData {
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 (overflow last)
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    /// Estimated value at percentile `p` in [0, 100]: linear interpolation
    /// inside the bucket holding that rank, clamped to the observed
    /// [min, max] (the overflow bucket interpolates toward max). 0 with no
    /// observations.
    double percentile(double p) const;
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  /// Pretty-printed JSON object ({"counters": .., "gauges": ..,
  /// "histograms": ..}). Metric names and the fields inside each histogram
  /// object are emitted in sorted order, so dumps from different runs diff
  /// cleanly line by line. Histograms include derived p50/p90/p99.
  std::string to_json() const;
};

/// Prometheus text exposition (version 0.0.4) of a snapshot: counters and
/// gauges as single samples, histograms as cumulative `_bucket{le=...}`
/// series plus `_sum`/`_count`. Metric names are sanitized for Prometheus
/// ([a-zA-Z0-9_:] only — `.` becomes `_`, a leading digit is prefixed).
std::string metrics_to_prometheus(const MetricsSnapshot& snapshot);

/// Windowed event rates derived from cumulative counters at scrape time
/// (the admin plane's /varz feed, DESIGN.md §3j). feed() diffs every
/// counter against its last-seen cumulative value and credits the delta to
/// the current 1-second bucket of a fixed ring; rate() sums the trailing
/// window. The hot path never changes — counters stay plain relaxed
/// atomics — and the clock is an explicit argument so tests drive a fake
/// one. Not thread-safe: the single admin thread owns its instance.
class CounterRateTracker {
 public:
  /// `capacity_s` seconds of 1-second delta buckets per counter (also the
  /// largest usable rate window).
  explicit CounterRateTracker(std::size_t capacity_s = 64);

  /// Folds a cumulative-counter snapshot taken at `now_s` into the rings.
  /// The first sight of a counter only seeds its baseline; a value below
  /// the baseline is treated as a counter reset (the full new value is the
  /// delta); seconds skipped between feeds are zeroed.
  void feed(const std::map<std::string, std::uint64_t>& counters,
            double now_s);

  /// Events/second of `name` over the trailing `window_s` seconds ending
  /// at `now_s` (clamped to [1, capacity]). Seconds never fed count as
  /// zero; an unknown or just-seeded counter rates 0.
  double rate(const std::string& name, std::size_t window_s,
              double now_s) const;

  std::size_t capacity_s() const noexcept { return capacity_s_; }

 private:
  struct Ring {
    std::vector<std::uint64_t> buckets;  ///< delta per second, sec % capacity
    std::uint64_t last_value = 0;
    std::int64_t last_sec = 0;
    bool seeded = false;
  };

  std::size_t capacity_s_;
  std::map<std::string, Ring> rings_;
};

class MetricsRegistry;

/// Samples process-level gauges from /proc/self into `registry`:
/// process.rss_bytes, process.open_fds, process.threads, process.uptime_s.
/// Called at scrape time (admin plane and the wire kMetrics op) — never on
/// a request hot path. A failed /proc read leaves that gauge untouched.
void sample_process_gauges(MetricsRegistry& registry);

/// Seconds since this process started (0.0 when /proc is unreadable).
double process_uptime_s();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the instrument registered under `name`, creating it on first
  /// use. References stay valid for the registry's lifetime. Registering a
  /// histogram name twice keeps the first bounds.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  /// Histogram with the default wall/simulated-latency buckets (seconds).
  Histogram& latency_histogram(const std::string& name);
  /// Histogram with power-of-two count buckets (batch sizes, fan-outs,
  /// probe and candidate counts).
  Histogram& count_histogram(const std::string& name);

  static std::vector<double> latency_bounds();
  static std::vector<double> count_bounds();

  MetricsSnapshot snapshot() const;
  std::string to_json() const { return snapshot().to_json(); }
  std::string to_prometheus() const {
    return metrics_to_prometheus(snapshot());
  }
  /// Writes to_json() to `path` (parent directories are not created).
  /// Throws std::runtime_error when the file cannot be written.
  void write_json(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace fast::util

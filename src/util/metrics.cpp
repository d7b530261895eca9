#include "util/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <stdexcept>

#if defined(__linux__)
#include <dirent.h>
#include <unistd.h>
#endif

#include "util/check.hpp"

namespace fast::util {

namespace {

/// Relaxed compare-exchange fold of a double stored as bits.
template <typename Better>
void update_extreme(std::atomic<std::uint64_t>& bits, double v,
                    Better better) noexcept {
  std::uint64_t cur = bits.load(std::memory_order_relaxed);
  while (better(v, std::bit_cast<double>(cur)) &&
         !bits.compare_exchange_weak(cur, std::bit_cast<std::uint64_t>(v),
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(bounds_.size() + 1),
      min_bits_(
          std::bit_cast<std::uint64_t>(std::numeric_limits<double>::max())),
      max_bits_(
          std::bit_cast<std::uint64_t>(std::numeric_limits<double>::lowest())) {
  FAST_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                     std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                         bounds_.end(),
                 "histogram bounds must be strictly ascending");
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto bucket =
      static_cast<std::size_t>(std::distance(bounds_.begin(), it));
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // Sum as a CAS fold: atomic<double>::fetch_add is C++20 but keeping the
  // bit-packed representation makes every field the same width and idiom.
  std::uint64_t cur = sum_bits_.load(std::memory_order_relaxed);
  while (!sum_bits_.compare_exchange_weak(
      cur, std::bit_cast<std::uint64_t>(std::bit_cast<double>(cur) + v),
      std::memory_order_relaxed, std::memory_order_relaxed)) {
  }
  update_extreme(min_bits_, v, std::less<double>{});
  update_extreme(max_bits_, v, std::greater<double>{});
}

double Histogram::min() const noexcept {
  return count() == 0
             ? 0.0
             : std::bit_cast<double>(min_bits_.load(std::memory_order_relaxed));
}

double Histogram::max() const noexcept {
  return count() == 0
             ? 0.0
             : std::bit_cast<double>(max_bits_.load(std::memory_order_relaxed));
}

std::vector<double> MetricsRegistry::latency_bounds() {
  // Two points per decade from 100 ns to 10 s — wide enough for both native
  // wall timings and the simulated cluster latencies.
  return {1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4,
          1e-3, 3e-3, 1e-2, 3e-2, 0.1,  0.3,  1.0,  3.0, 10.0};
}

std::vector<double> MetricsRegistry::count_bounds() {
  std::vector<double> bounds;
  for (double b = 1.0; b <= 65536.0; b *= 2.0) bounds.push_back(b);
  return bounds;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

Histogram& MetricsRegistry::latency_histogram(const std::string& name) {
  return histogram(name, latency_bounds());
}

Histogram& MetricsRegistry::count_histogram(const std::string& name) {
  return histogram(name, count_bounds());
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard lock(mutex_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.bounds = h->bounds();
    data.counts.reserve(data.bounds.size() + 1);
    for (std::size_t i = 0; i <= data.bounds.size(); ++i) {
      data.counts.push_back(h->bucket_count(i));
    }
    data.count = h->count();
    data.sum = h->sum();
    data.min = h->min();
    data.max = h->max();
    snap.histograms[name] = std::move(data);
  }
  return snap;
}

double MetricsSnapshot::HistogramData::percentile(double p) const {
  if (count == 0) return 0.0;
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t prev = cumulative;
    cumulative += counts[i];
    if (counts[i] == 0 || static_cast<double>(cumulative) < rank) continue;
    // Interpolate linearly inside bucket i. Its nominal range is
    // (bounds[i-1], bounds[i]]; the first bucket starts at the observed min
    // and the overflow bucket ends at the observed max. Clamping keeps the
    // estimate inside what was actually seen even for wide buckets.
    const double lo = i == 0 ? min : std::max(bounds[i - 1], min);
    const double hi = i < bounds.size() ? std::min(bounds[i], max) : max;
    const double frac =
        (rank - static_cast<double>(prev)) / static_cast<double>(counts[i]);
    return std::clamp(lo + frac * (hi - lo), min, max);
  }
  return max;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    out += first ? "\n" : ",\n";
    out += "    " + quote(name) + ": " + std::to_string(v);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    out += first ? "\n" : ",\n";
    out += "    " + quote(name) + ": " + fmt_double(v);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  // Histogram fields in sorted (alphabetical) order, matching the sorted
  // metric names above, so dumps from different runs diff cleanly.
  for (const auto& [name, h] : histograms) {
    out += first ? "\n" : ",\n";
    out += "    " + quote(name) + ": {\n";
    out += "      \"buckets\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      out += i == 0 ? "\n" : ",\n";
      out += "        {\"le\": " + fmt_double(h.bounds[i]) +
             ", \"count\": " + std::to_string(h.counts[i]) + "}";
    }
    out += h.bounds.empty() ? "],\n" : "\n      ],\n";
    out += "      \"count\": " + std::to_string(h.count) + ",\n";
    out += "      \"max\": " + fmt_double(h.max) + ",\n";
    out += "      \"min\": " + fmt_double(h.min) + ",\n";
    out += "      \"overflow\": " + std::to_string(h.counts.back()) + ",\n";
    out += "      \"p50\": " + fmt_double(h.percentile(50.0)) + ",\n";
    out += "      \"p90\": " + fmt_double(h.percentile(90.0)) + ",\n";
    out += "      \"p99\": " + fmt_double(h.percentile(99.0)) + ",\n";
    out += "      \"sum\": " + fmt_double(h.sum) + "\n";
    out += "    }";
    first = false;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:] with a non-digit first
/// character; our dotted stage names ("fe_sm.summarize_s") become
/// underscored ("fe_sm_summarize_s").
std::string prometheus_name(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (name.empty() || (name[0] >= '0' && name[0] <= '9')) out.push_back('_');
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::string metrics_to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, v] : snapshot.counters) {
    const std::string pname = prometheus_name(name);
    out += "# TYPE " + pname + " counter\n";
    out += pname + " " + std::to_string(v) + "\n";
  }
  for (const auto& [name, v] : snapshot.gauges) {
    const std::string pname = prometheus_name(name);
    out += "# TYPE " + pname + " gauge\n";
    out += pname + " " + fmt_double(v) + "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string pname = prometheus_name(name);
    out += "# TYPE " + pname + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += h.counts[i];
      out += pname + "_bucket{le=\"" + fmt_double(h.bounds[i]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += pname + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += pname + "_sum " + fmt_double(h.sum) + "\n";
    out += pname + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

CounterRateTracker::CounterRateTracker(std::size_t capacity_s)
    : capacity_s_(std::max<std::size_t>(1, capacity_s)) {}

void CounterRateTracker::feed(
    const std::map<std::string, std::uint64_t>& counters, double now_s) {
  const std::int64_t sec = static_cast<std::int64_t>(std::floor(now_s));
  for (const auto& [name, value] : counters) {
    Ring& ring = rings_[name];
    if (ring.buckets.empty()) ring.buckets.assign(capacity_s_, 0);
    if (!ring.seeded) {
      ring.seeded = true;
      ring.last_sec = sec;
      ring.last_value = value;
      continue;
    }
    if (sec < ring.last_sec) continue;  // clock went backwards; ignore
    // A cumulative value below the last sample means the counter was reset
    // (process restart between feeds never happens in-process, but the
    // tracker is generic): the whole new value is this interval's delta.
    const std::uint64_t delta =
        value >= ring.last_value ? value - ring.last_value : value;
    const std::int64_t gap = sec - ring.last_sec;
    const std::int64_t cap = static_cast<std::int64_t>(capacity_s_);
    // Zero the seconds skipped since the last feed; a gap past the ring
    // capacity wipes everything (every live bucket is stale).
    const std::int64_t zero_from =
        gap >= cap ? sec - cap + 1 : ring.last_sec + 1;
    for (std::int64_t s = zero_from; s <= sec; ++s) {
      ring.buckets[static_cast<std::size_t>(((s % cap) + cap) % cap)] = 0;
    }
    ring.buckets[static_cast<std::size_t>(((sec % cap) + cap) % cap)] += delta;
    ring.last_sec = sec;
    ring.last_value = value;
  }
}

double CounterRateTracker::rate(const std::string& name, std::size_t window_s,
                                double now_s) const {
  const auto it = rings_.find(name);
  if (it == rings_.end() || !it->second.seeded) return 0.0;
  const Ring& ring = it->second;
  const std::int64_t cap = static_cast<std::int64_t>(capacity_s_);
  const std::int64_t window = static_cast<std::int64_t>(
      std::clamp<std::size_t>(window_s, 1, capacity_s_));
  const std::int64_t sec = static_cast<std::int64_t>(std::floor(now_s));
  std::uint64_t sum = 0;
  for (std::int64_t s = sec - window + 1; s <= sec; ++s) {
    if (s > ring.last_sec) continue;        // not yet fed: zero events
    if (s <= ring.last_sec - cap) continue;  // overwritten by a newer second
    sum += ring.buckets[static_cast<std::size_t>(
        ((s % cap) + cap) % cap)];
  }
  return static_cast<double>(sum) / static_cast<double>(window);
}

#if defined(__linux__)

namespace {

/// Small bounded /proc read; these files are tiny and never seekable.
bool read_proc_file(const char* path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return !out->empty();
}

/// Whitespace token `index` (0-based) of /proc/self/stat AFTER the ')'
/// that closes the comm field — the only robust way to parse stat, since
/// comm may itself contain spaces. Field N of proc(5) is token N - 3 here.
bool stat_token_after_comm(std::size_t index, std::uint64_t* out) {
  std::string stat;
  if (!read_proc_file("/proc/self/stat", &stat)) return false;
  const std::size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return false;
  std::size_t pos = paren + 1;
  for (std::size_t tok = 0;; ++tok) {
    while (pos < stat.size() && stat[pos] == ' ') ++pos;
    const std::size_t end = stat.find(' ', pos);
    if (pos >= stat.size()) return false;
    if (tok == index) {
      *out = std::strtoull(stat.c_str() + pos, nullptr, 10);
      return true;
    }
    if (end == std::string::npos) return false;
    pos = end;
  }
}

}  // namespace

double process_uptime_s() {
  std::string uptime;
  std::uint64_t start_ticks = 0;
  // starttime is field 22 of proc(5) => token 19 after the comm ')'.
  if (!read_proc_file("/proc/uptime", &uptime) ||
      !stat_token_after_comm(19, &start_ticks)) {
    return 0.0;
  }
  const double system_up_s = std::strtod(uptime.c_str(), nullptr);
  const long ticks_per_s = ::sysconf(_SC_CLK_TCK);
  if (ticks_per_s <= 0) return 0.0;
  const double up = system_up_s - static_cast<double>(start_ticks) /
                                      static_cast<double>(ticks_per_s);
  return up > 0.0 ? up : 0.0;
}

void sample_process_gauges(MetricsRegistry& registry) {
  std::string statm;
  if (read_proc_file("/proc/self/statm", &statm)) {
    // statm field 2 is resident pages.
    const char* p = statm.c_str();
    char* end = nullptr;
    std::strtoull(p, &end, 10);
    const std::uint64_t resident_pages = std::strtoull(end, nullptr, 10);
    const long page = ::sysconf(_SC_PAGESIZE);
    if (page > 0) {
      registry.gauge("process.rss_bytes")
          .set(static_cast<double>(resident_pages) *
               static_cast<double>(page));
    }
  }
  if (DIR* dir = ::opendir("/proc/self/fd")) {
    std::size_t fds = 0;
    while (const dirent* ent = ::readdir(dir)) {
      if (ent->d_name[0] != '.') ++fds;
    }
    ::closedir(dir);
    registry.gauge("process.open_fds").set(static_cast<double>(fds));
  }
  // num_threads is field 20 of proc(5) => token 17 after the comm ')'.
  if (std::uint64_t threads = 0; stat_token_after_comm(17, &threads)) {
    registry.gauge("process.threads").set(static_cast<double>(threads));
  }
  registry.gauge("process.uptime_s").set(process_uptime_s());
}

#else  // !__linux__

double process_uptime_s() { return 0.0; }
void sample_process_gauges(MetricsRegistry&) {}

#endif

void MetricsRegistry::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("MetricsRegistry::write_json: cannot open " +
                             path);
  }
  out << to_json();
  if (!out) {
    throw std::runtime_error("MetricsRegistry::write_json: write failed: " +
                             path);
  }
}

}  // namespace fast::util

#include "stats.hpp"

#include "load_driver.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace servebench {

double percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return fast::bench::percentile(samples, p);
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double windowed_percentile(const std::vector<double>& samples,
                           const std::vector<double>& times, double p,
                           std::size_t min_per_window,
                           std::size_t max_windows, double of_windows) {
  const std::size_t n = std::min(samples.size(), times.size());
  const std::size_t windows = std::clamp<std::size_t>(
      n / std::max<std::size_t>(1, min_per_window), 1, max_windows);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return times[a] < times[b];
                   });
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> chunk;
    for (std::size_t i = w * n / windows; i < (w + 1) * n / windows; ++i) {
      chunk.push_back(samples[order[i]]);
    }
    per_window.push_back(percentile(std::move(chunk), p));
  }
  return percentile(std::move(per_window), of_windows);
}

double windowed_rate(const std::vector<double>& event_times, double duration_s,
                     std::size_t windows, double of_slices) {
  if (duration_s <= 0.0 || windows == 0) return 0.0;
  const double width = duration_s / static_cast<double>(windows);
  std::vector<double> counts(windows, 0.0);
  for (const double t : event_times) {
    if (t < 0.0 || t >= duration_s) continue;
    counts[std::min(windows - 1, static_cast<std::size_t>(t / width))] += 1.0;
  }
  for (double& c : counts) c /= width;
  return percentile(std::move(counts), of_slices);
}

std::size_t samples_for_tail(double p, std::size_t beyond) {
  // The tolerance absorbs the rounding of 1 - p/100 (99.9 -> 10000.00001).
  return static_cast<std::size_t>(
      std::ceil(static_cast<double>(beyond) / (1.0 - p / 100.0) - 1e-6));
}

}  // namespace servebench

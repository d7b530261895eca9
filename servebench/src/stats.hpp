// Sample summaries shared by every servebench metric.
#pragma once

#include <cstddef>
#include <vector>

namespace servebench {

/// Ceil-rank percentile: the smallest sample whose rank is >=
/// ceil(p/100 * n), so p100 is the maximum and p50 of two samples is the
/// lower one. Sorts a copy; returns 0 for an empty sample.
double percentile(std::vector<double> samples, double p);

/// Median of a sample (ceil-rank p50 above).
double median(std::vector<double> samples);

double mean(const std::vector<double>& samples);

/// A per-window percentile, summarized over time windows. `times`
/// (seconds, ascending) orders `samples`; they are cut into equal-count
/// windows of at least `min_per_window` samples (at most `max_windows`),
/// the p-th percentile is taken in each, and the `of_windows`-th percentile
/// of those is returned (50: the median window). A stall then moves the
/// windows it hits, not the whole run's figure.
double windowed_percentile(const std::vector<double>& samples,
                           const std::vector<double>& times, double p,
                           std::size_t min_per_window,
                           std::size_t max_windows, double of_windows);

/// The `of_slices`-th percentile over `windows` equal time slices of
/// [0, duration_s) of the event rate (events per second) in each slice.
double windowed_rate(const std::vector<double>& event_times, double duration_s,
                     std::size_t windows, double of_slices);

/// Samples needed so that the p-th percentile has at least `beyond`
/// samples above it (p99 with 10 beyond -> 1000).
std::size_t samples_for_tail(double p, std::size_t beyond);

}  // namespace servebench

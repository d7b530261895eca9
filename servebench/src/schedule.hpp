// Open-loop timing: the seeded arrival schedule and the accounting that
// charges each request from the instant it was DUE, not the instant the
// generator got round to sending it. A generator stall therefore shows up
// as latency on every request it delayed (and as lag), instead of
// vanishing the way send-time accounting hides it.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

namespace servebench {

/// Send offsets (seconds from phase start) of a Poisson arrival process at
/// `rate` per second over [0, duration_s). Same seed, same schedule.
std::vector<double> arrival_schedule(double rate, double duration_s,
                                     std::uint64_t seed);

/// Per-request bookkeeping of one open- or closed-loop phase. Times are
/// nanoseconds on any monotonic clock (tests pass a fake one).
class LatencyBook {
 public:
  /// A request keyed `key` was due at `due_ns` and left at `sent_ns`
  /// (closed loop: due == sent).
  void on_send(std::uint64_t key, std::int64_t due_ns, std::int64_t sent_ns);

  /// The response to `key` arrived at `recv_ns`. Returns its latency in ms
  /// measured from the due instant, or nullopt for an unknown key.
  std::optional<double> on_response(std::uint64_t key, std::int64_t recv_ns);

  /// How late each send ran against its due instant, ms.
  const std::vector<double>& lag_ms() const noexcept { return lag_ms_; }
  /// Requests sent and not yet answered.
  std::size_t outstanding() const noexcept { return due_.size(); }

 private:
  std::unordered_map<std::uint64_t, std::int64_t> due_;
  std::vector<double> lag_ms_;
};

}  // namespace servebench

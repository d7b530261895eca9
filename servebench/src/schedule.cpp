#include "schedule.hpp"

#include "util/rng.hpp"

namespace servebench {

std::vector<double> arrival_schedule(double rate, double duration_s,
                                     std::uint64_t seed) {
  std::vector<double> out;
  if (rate <= 0.0 || duration_s <= 0.0) return out;
  out.reserve(static_cast<std::size_t>(rate * duration_s * 1.1) + 16);
  fast::util::Rng rng(seed);
  double t = rng.exponential(rate);
  while (t < duration_s) {
    out.push_back(t);
    t += rng.exponential(rate);
  }
  return out;
}

void LatencyBook::on_send(std::uint64_t key, std::int64_t due_ns,
                          std::int64_t sent_ns) {
  due_[key] = due_ns;
  lag_ms_.push_back(static_cast<double>(sent_ns - due_ns) * 1e-6);
}

std::optional<double> LatencyBook::on_response(std::uint64_t key,
                                               std::int64_t recv_ns) {
  const auto it = due_.find(key);
  if (it == due_.end()) return std::nullopt;
  const double ms = static_cast<double>(recv_ns - it->second) * 1e-6;
  due_.erase(it);
  return ms;
}

}  // namespace servebench

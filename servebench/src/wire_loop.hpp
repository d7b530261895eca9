// The load generator: one thread drives every connection of a phase
// through a ppoll() loop, so the generator never needs more than one core.
//
// Open loop: sends follow a seeded Poisson schedule, round-robin over the
// connections, pipelined without waiting for answers; each request is
// timed from its scheduled instant (schedule.hpp). Closed loop: every
// connection keeps exactly one request outstanding and sends the next the
// moment the previous answer lands.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "inputs.hpp"
#include "server/protocol.hpp"

namespace servebench {

struct PhaseOptions {
  std::size_t connections = 1;
  double rate = 0.0;  ///< > 0: open loop at this many requests/s
  double duration_s = 1.0;
  /// Negotiate kCapServerTiming so responses carry queue/exec nanoseconds.
  bool server_timing = false;
  std::uint64_t schedule_seed = 1;
  /// How long to wait for outstanding answers after the last send.
  double drain_timeout_s = 10.0;
  /// Closed loop only: stop after this many sends (0 = run for duration).
  std::size_t max_ops = 0;
};

/// Called for every decoded kOk response with the operation it answers.
using ResponseSink =
    std::function<void(const Op& op, const fast::server::Response& response)>;

struct PhaseResult {
  std::vector<double> query_ms;  ///< kOk query latencies
  std::vector<double> write_ms;  ///< kOk insert/erase latencies
  std::vector<double> query_t, write_t;  ///< their answer times, s from start
  std::vector<double> ok_t;  ///< answer time of every kOk, s from start
  std::vector<double> lag_ms;    ///< send time - scheduled time (open loop)
  /// Server-timing split of kOk queries (trailer queue_ns / exec_ns, and
  /// the rest of the observed latency).
  std::vector<double> queue_ms, exec_ms, net_ms;
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t retry = 0;         ///< kRetryAfter
  std::size_t error = 0;         ///< kError / kBadRequest / undecodable
  std::size_t undecodable = 0;   ///< responses that failed to decode
  std::size_t transport = 0;     ///< connect/read/write failures
  std::size_t unanswered = 0;
  double duration_s = 0.0;
  std::uint64_t request_bytes = 0;   ///< framed bytes written
  std::uint64_t response_bytes = 0;  ///< framed bytes read
  /// The phase's own request and response bodies, per Op::Kind, for the
  /// wire-layer replay (capped).
  std::array<std::vector<std::vector<std::uint8_t>>, 3> request_bodies;
  std::array<std::vector<std::vector<std::uint8_t>>, 3> response_bodies;

  std::size_t failed() const noexcept {
    return retry + error + transport + unanswered;
  }
};

PhaseResult run_phase(std::uint16_t port, const PhaseOptions& options,
                      OpSource& source, const ResponseSink& sink);

}  // namespace servebench

// HTTP/1.0 admin plane for the fast::server front door (DESIGN.md §3j).
//
// A second, tiny listener — separate port, one dedicated thread — serves
// plain-text/JSON observability endpoints to stock HTTP clients (curl,
// a Prometheus scraper, a Kubernetes probe), so nothing operational needs
// the binary wire protocol:
//
//   GET /          index of the endpoints below
//   GET /healthz   liveness: 200 "ok" while the admin thread runs
//   GET /readyz    readiness: 200 while the data plane is kServing, 503
//                  the moment it enters draining — BEFORE the data
//                  listener closes, so load balancers stop routing new
//                  connections ahead of the cutoff
//   GET /metrics   Prometheus text exposition (version 0.0.4) of the
//                  engine registry, process gauges freshly sampled
//   GET /varz      JSON counters + gauges + histogram count/p50/p99 +
//                  windowed rates (10s/60s), computed at scrape from a
//                  CounterRateTracker
//   GET /statusz   build info, uptime, config fingerprint, backend and
//                  tier selection, engine size — one JSON object
//   GET /tracez    tracer stats + slow-query ring + sampled spans as
//                  Chrome-trace-loadable JSON (util::Tracer::tracez_json)
//
// Isolation: the admin thread never takes a data-plane lock — it reads
// relaxed-atomic instruments (MetricsRegistry snapshots), the server's
// lifecycle atomic, and the tracer's own exporter locks. A slow or stuck
// scrape therefore cannot slow a query, and the request hot path carries
// zero admin-plane cost.
//
// The server is HTTP/1.0, Connection: close, GET-only, one request per
// connection, bounded request size and per-client socket timeouts — the
// minimum surface that still satisfies curl, probes and Prometheus. The
// request parser is a pure function (parse_http_request) so malformed,
// oversized and split-across-reads inputs are unit-testable without
// sockets.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "core/query_engine.hpp"
#include "storage/io.hpp"

namespace fast::server {

class Server;

/// Parse outcome of one buffered HTTP request head.
enum class HttpParse : std::uint8_t {
  kNeedMore = 0,  ///< no terminating CRLFCRLF yet; read more bytes
  kOk = 1,
  kBad = 2,       ///< malformed request line or header
  kTooLarge = 3,  ///< head exceeds the configured byte budget
};

/// A parsed request head. Bodies are never read (GET-only plane).
struct HttpRequest {
  std::string method;
  std::string target;        ///< path only; the ?query suffix is stripped
  std::size_t header_count = 0;
};

/// Incremental parser for one HTTP/1.x request head in `data` (everything
/// received so far). Returns kNeedMore until the blank-line terminator is
/// buffered, kTooLarge once `data` exceeds `max_bytes` without one, and
/// kBad for a malformed request line (not exactly "METHOD SP TARGET SP
/// VERSION") or a header line without a colon. Pure — no I/O, no state —
/// so property tests can drive every split point and byte-level mutation.
HttpParse parse_http_request(std::string_view data, std::size_t max_bytes,
                             HttpRequest* out);

struct HttpAdminOptions {
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Loopback by default: the admin plane is an operator surface, not a
  /// public one.
  std::string bind_addr = "127.0.0.1";
  /// Request heads above this answer 431 and close.
  std::size_t max_request_bytes = 8192;
  /// Per-client socket receive/send timeout — a stalled client cannot
  /// wedge the single admin thread for longer than this.
  long client_timeout_ms = 2000;
};

/// The admin-plane server. `engine` must outlive it; `server` is optional
/// (nullptr serves every endpoint except that /readyz is then always 200
/// and /statusz omits the data-plane section) and must outlive it when
/// given.
class HttpAdmin {
 public:
  HttpAdmin(core::QueryEngine& engine, const Server* server,
            HttpAdminOptions options);
  ~HttpAdmin();

  HttpAdmin(const HttpAdmin&) = delete;
  HttpAdmin& operator=(const HttpAdmin&) = delete;

  /// Binds, listens and spawns the admin thread.
  storage::Status start();
  /// Stops the thread and closes the listener. Idempotent.
  void stop();

  /// The bound port (after start(); resolves port 0 to the real one).
  std::uint16_t port() const noexcept { return bound_port_; }

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

 private:
  void serve_loop();
  void serve_client(int fd);
  /// Routes one parsed request to its endpoint payload.
  void respond(int fd, const HttpRequest& request);

  std::string metrics_body();
  std::string varz_body();
  std::string statusz_body();

  core::QueryEngine& engine_;
  const Server* server_;  ///< nullable
  const HttpAdminOptions options_;
  std::uint16_t bound_port_ = 0;
  int listen_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> running_{false};

  /// Windowed rates for /varz; admin thread only (never locked).
  struct RateState;
  std::unique_ptr<RateState> rates_;
};

/// Minimal blocking HTTP/1.0 GET for tests and benches: fetches
/// `target` from host:port, fills *status_out from the status line and
/// *body_out with everything after the head. Returns false on connect,
/// I/O or parse failure. Not a general client — no redirects, no TLS,
/// no chunked decoding (the admin plane sends none of those).
bool http_get(const std::string& host, std::uint16_t port,
              const std::string& target, int* status_out,
              std::string* body_out);

}  // namespace fast::server

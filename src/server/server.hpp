// fast::server — the network front door (DESIGN.md §3g, QoS §3i).
//
// One epoll I/O thread owns the epoll set and every socket's lifetime: it
// accepts connections, reads and splits the byte stream into length-
// prefixed frames (protocol.hpp), makes the admission decision per frame,
// and closes connections. Admitted requests are executed by a pool of
// worker threads against the QueryEngine mutating facade. Whoever produces
// a reply (a worker, or the I/O thread for a rejection) sends it itself
// with a nonblocking send() under the connection's lock when nothing is
// buffered ahead of it; only a reply the socket does not fully take
// leaves its unsent tail in the connection's output buffer and kicks the
// I/O thread through an eventfd, which flushes it, arms EPOLLOUT or drops
// the connection. Per-connection byte order holds because a direct send
// happens only while the buffer is empty. Request order is preserved per
// lane for admitted requests, while rejections are answered immediately
// from the I/O thread, ahead of the queues.
//
// Multi-tenant QoS (DESIGN.md §3i):
//   - Tenancy: a kHello frame binds the connection to a tenant id;
//     connections that never send one are the default tenant 0, so every
//     pre-QoS client keeps working. Admission is layered: the
//     per-connection window first, then the tenant's admitted-inflight
//     window, then the tenant's token bucket — a rejection at any layer
//     answers kRetryAfter without consuming a token.
//   - Priority lanes: admitted requests land in one of two FIFO lanes —
//     queries (reads) or bulk (mutations). Workers drain them through a
//     weighted round-robin: `query_weight` queries per bulk item when both
//     lanes are backlogged, so interactive queries overtake bulk ingest
//     without ever fully starving it (and bulk drains at full speed when
//     the query lane is idle).
//   - Adaptive retry-after: every rejection hint is derived from the
//     target lane's current queue depth and its EWMA service time,
//     clamped to [retry_after_ms, retry_max_ms] and monotone in load —
//     replacing the fixed knob (compute_retry_after_ms below is the pure,
//     unit-testable formula).
//
// Graceful shutdown (stop(), also the SIGTERM path of fast_server):
//   1. stop accepting; answer new frames kShuttingDown with an adaptive
//      retry hint (counted as server.rejected_draining);
//   2. drain — every admitted request executes and its response is sent
//      or buffered;
//   3. workers join; the I/O thread flushes every output buffer;
//   4. the WAL is fsynced through the engine facade, so every
//      acknowledged write is durable before the process exits (the
//      loopback integration test asserts zero acked-write loss).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/query_engine.hpp"
#include "server/protocol.hpp"
#include "storage/io.hpp"

namespace fast::util {
class Counter;
class Gauge;
class Histogram;
}

namespace fast::server {

/// The two priority lanes of the worker pool. Reads (ping/query/metrics)
/// are interactive; mutations (insert/erase, batched or not) are bulk.
enum class Lane : std::uint8_t { kQuery = 0, kBulk = 1 };

/// Lifecycle of a Server, exported as the `server.state` gauge and served
/// by the admin plane's GET /readyz (DESIGN.md §3j). The numeric values
/// are the wire/metric encoding — keep them stable.
///
/// kStarting -> kServing -> kDraining -> kStopped, strictly monotone:
/// enter_draining() flips kServing -> kDraining (readiness goes 503)
/// while the data plane keeps serving, so orchestrators stop routing new
/// clients before in-flight work is cut off; stop() passes through
/// kDraining on its way to kStopped.
enum class ServerState : std::uint8_t {
  kStarting = 0,
  kServing = 1,
  kDraining = 2,
  kStopped = 3,
};

/// Lane classification for an op (pure; used by admission and tests).
Lane lane_of(Op op) noexcept;

/// The adaptive retry-after formula: base plus the expected wait for the
/// lane backlog (queue depth x EWMA service time), clamped to
/// [base_ms, max_ms]. Monotone (non-strictly) in both queue_depth and
/// ewma_service_us; exactly base_ms when the lane is empty or no request
/// has completed yet.
std::uint32_t compute_retry_after_ms(std::size_t queue_depth,
                                     double ewma_service_us,
                                     std::uint32_t base_ms,
                                     std::uint32_t max_ms) noexcept;

/// Per-tenant quota override (fast_server --tenant=ID:rate:burst:inflight).
struct TenantQuota {
  std::uint16_t tenant = 0;
  /// Token-bucket refill rate, requests/second. 0 = unlimited (no bucket).
  double rate = 0.0;
  /// Token-bucket capacity (burst size), whole requests.
  double burst = 64.0;
  /// Admitted-but-unanswered window across the tenant's connections.
  /// 0 = unlimited.
  std::size_t inflight = 0;
};

struct ServerOptions {
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Bind address; loopback by default (the load harness and tests).
  std::string bind_addr = "127.0.0.1";
  /// Request-execution threads.
  std::size_t workers = 4;
  /// Per-connection admitted-but-unanswered window (admission control).
  std::size_t queue_depth = 64;
  /// Floor (and empty-lane value) of the adaptive retry hint, ms.
  std::uint32_t retry_after_ms = 10;
  /// Ceiling of the adaptive retry hint, ms.
  std::uint32_t retry_max_ms = 1000;
  /// Queries drained per bulk item when both lanes are backlogged (>= 1).
  std::size_t query_weight = 4;
  /// Default tenant quota, applied to any tenant without an override.
  double tenant_rate = 0.0;       ///< tokens/s; 0 = unlimited
  double tenant_burst = 64.0;     ///< bucket capacity
  std::size_t tenant_inflight = 0;  ///< admitted window; 0 = unlimited
  /// Per-tenant overrides of the defaults above.
  std::vector<TenantQuota> tenant_quotas;
  /// A connection whose unsent output exceeds this is dropped (client
  /// stopped reading).
  std::size_t max_outbuf_bytes = 64u << 20;
  /// Test-only: artificial per-request execution delay, so admission-
  /// control tests can fill the window deterministically.
  std::size_t debug_request_delay_us = 0;
  /// Test-only: start with the worker pool held — admitted requests queue
  /// but never execute until debug_hold_workers(false). Lane and quota
  /// decisions become assertable by exact counts, no wall-clock sleeps.
  bool debug_hold_workers = false;

  /// Applies FAST_SERVER_PORT / FAST_SERVER_WORKERS / FAST_SERVER_QUEUE /
  /// FAST_SERVER_QUERY_WEIGHT / FAST_SERVER_RETRY_MS /
  /// FAST_SERVER_RETRY_MAX_MS / FAST_SERVER_TENANT_RATE /
  /// FAST_SERVER_TENANT_BURST / FAST_SERVER_TENANT_INFLIGHT on top of
  /// `defaults`, with checked parsing (util/env.hpp): garbage, negative or
  /// out-of-range values warn once and are ignored.
  static ServerOptions from_env(ServerOptions defaults);
  static ServerOptions from_env() { return from_env(ServerOptions{}); }
};

class Server {
 public:
  /// The engine must outlive the server; it serves the full op set.
  Server(core::QueryEngine& engine, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the I/O + worker threads.
  storage::Status start();

  /// The bound port (after start(); resolves port 0 to the real one).
  std::uint16_t port() const noexcept { return bound_port_; }

  /// Graceful shutdown as documented above. Idempotent; called by the
  /// destructor if still running. Must not be called from a worker.
  void stop();

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Current lifecycle state (admin plane /readyz and the `server.state`
  /// gauge; safe from any thread).
  ServerState state() const noexcept {
    return static_cast<ServerState>(state_.load(std::memory_order_acquire));
  }

  /// Flips kServing -> kDraining WITHOUT closing the listener or rejecting
  /// traffic: the data plane keeps serving while /readyz answers 503, so a
  /// load balancer drains new arrivals before stop() cuts in-flight work
  /// off. Idempotent; a no-op unless currently kServing. stop() calls it
  /// first, so a plain stop() still passes through kDraining.
  void enter_draining() noexcept;

  /// Live connection count (diagnostics/tests).
  std::size_t connection_count() const noexcept {
    return connections_.load(std::memory_order_relaxed);
  }

  /// Test-only: holds (true) or releases (false) the worker pool. While
  /// held, admitted requests pile up in their lanes without executing, so
  /// tests can assert admission outcomes by exact counts. stop() releases
  /// the hold itself, so a held server still shuts down cleanly.
  void debug_hold_workers(bool hold);

  /// Test-only: current depth of a lane's admitted queue.
  std::size_t debug_lane_depth(Lane lane) const noexcept {
    return lane_depth_[static_cast<std::size_t>(lane)].load(
        std::memory_order_acquire);
  }

  /// The retry hint the server would attach to a rejection routed at
  /// `lane` right now (tests assert monotonicity against this).
  std::uint32_t current_retry_after_ms(Lane lane) const noexcept;

 private:
  struct TenantState;

  struct Conn {
    int fd = -1;
    FrameAssembler assembler;
    /// Admitted-but-unanswered requests on this connection.
    std::atomic<std::size_t> inflight{0};
    /// Tenant binding (kHello); read and written by the I/O thread only.
    std::shared_ptr<TenantState> tenant;
    /// Negotiated capability bits (kHello; I/O thread only, like tenant).
    std::uint32_t caps = 0;
    /// Guards out/out_off/deferred_at/closed, and every send() on fd.
    std::mutex mu;
    std::vector<std::uint8_t> out;    ///< serialized, unsent response bytes
    std::size_t out_off = 0;
    /// When a deferred reply first found no buffered bytes ahead of it
    /// (epoch = nothing deferred since the I/O thread last sent).
    std::chrono::steady_clock::time_point deferred_at{};
    bool closed = false;
    bool want_write = false;          ///< EPOLLOUT armed (I/O thread only)
  };

  struct WorkItem {
    std::shared_ptr<Conn> conn;
    /// Captured at admission so a later kHello on the connection cannot
    /// race the completion-side accounting.
    std::shared_ptr<TenantState> tenant;
    Lane lane = Lane::kQuery;
    std::vector<std::uint8_t> body;
    /// Admission timestamp: worker pickup minus this is the queue wait
    /// (server.queue_wait_s histogram and the kCapServerTiming trailer).
    std::chrono::steady_clock::time_point admitted_at{};
    /// Connection negotiated kCapServerTiming (captured at admission —
    /// Conn::caps is I/O-thread-only state).
    bool want_timing = false;
  };

  void io_loop();
  void worker_loop();

  void accept_ready();
  void conn_readable(const std::shared_ptr<Conn>& conn);
  void conn_writable(const std::shared_ptr<Conn>& conn);
  /// Admission decision + dispatch for one complete frame (I/O thread).
  void handle_frame(const std::shared_ptr<Conn>& conn,
                    std::vector<std::uint8_t> body);
  /// Executes one admitted request (worker thread).
  Response execute(const Request& request, const WorkItem& item);

  /// Tenant registry lookup/creation (I/O thread only).
  const std::shared_ptr<TenantState>& tenant_state(std::uint16_t id);
  /// Token-bucket + tenant-window admission (I/O thread only).
  bool admit_tenant(TenantState& tenant);
  /// Pops the next admitted request honoring the lane weights; false on
  /// worker shutdown.
  bool pop_work(WorkItem* item);

  /// Sends a serialized response when nothing is buffered ahead of it;
  /// otherwise, or for whatever the socket did not take, buffers the tail
  /// and wakes the I/O thread (any thread).
  void send_response(const std::shared_ptr<Conn>& conn,
                     const Response& response);
  /// Flushes the output buffer; arms/disarms EPOLLOUT (I/O thread).
  void flush_conn(const std::shared_ptr<Conn>& conn);
  void close_conn(const std::shared_ptr<Conn>& conn);
  void update_epoll(Conn& conn, bool want_write);
  /// True when every connection's output buffer is empty (drain check).
  bool all_flushed();

  core::QueryEngine& engine_;
  const ServerOptions options_;
  std::uint16_t bound_port_ = 0;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  /// eventfd kicked after buffering a reply the socket did not take, and
  /// by stop(); the I/O thread then flushes the posted connections.
  int wake_fd_ = -1;

  std::thread io_thread_;
  std::vector<std::thread> workers_;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};   ///< reject new frames
  std::atomic<bool> io_stop_{false};    ///< I/O thread exits once flushed
  /// Lifecycle state (ServerState values; see state()/enter_draining()).
  std::atomic<std::uint8_t> state_{
      static_cast<std::uint8_t>(ServerState::kStarting)};

  // Two admitted-request lanes (FIFO within a lane) + weighted dispatch
  // state, all guarded by work_mutex_.
  std::mutex work_mutex_;
  std::condition_variable work_cv_;
  std::deque<WorkItem> lane_query_;
  std::deque<WorkItem> lane_bulk_;
  /// Queries handed out since the last bulk item (weighted round-robin).
  std::size_t queries_since_bulk_ = 0;
  bool workers_stop_ = false;
  bool workers_held_ = false;

  // Lock-free mirrors for the adaptive hint + tests: queue depth per lane
  // and the EWMA of request service time (double bits, microseconds).
  std::atomic<std::size_t> lane_depth_[2] = {{0}, {0}};
  std::atomic<std::uint64_t> lane_ewma_us_bits_[2] = {{0}, {0}};

  // Tenant registry: created on first frame / kHello (I/O thread only);
  // workers only ever touch a TenantState through the shared_ptr captured
  // in their WorkItem.
  std::unordered_map<std::uint16_t, std::shared_ptr<TenantState>> tenants_;

  // Connections with a buffered tail to flush, posted by whoever deferred
  // a reply (guarded by wake_mutex_).
  std::mutex wake_mutex_;
  std::vector<std::weak_ptr<Conn>> pending_flush_;

  // Drain accounting: admitted requests not yet answered, process-wide.
  std::atomic<std::size_t> admitted_{0};
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;

  std::atomic<std::size_t> connections_{0};

  /// I/O-thread-private registry of live connections.
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;

  // Instruments live in the engine's registry, so one kMetrics scrape (or
  // registry JSON dump) covers pipeline and serving metrics together.
  util::Counter* m_accepted_ = nullptr;
  util::Counter* m_requests_ = nullptr;
  util::Counter* m_rejected_retry_ = nullptr;
  util::Counter* m_rejected_draining_ = nullptr;
  util::Counter* m_bad_requests_ = nullptr;
  util::Counter* m_bytes_in_ = nullptr;
  util::Counter* m_bytes_out_ = nullptr;
  util::Counter* m_replies_direct_ = nullptr;    ///< sent whole at once
  util::Counter* m_replies_deferred_ = nullptr;  ///< tail left to I/O thread
  util::Counter* m_lane_executed_[2] = {nullptr, nullptr};
  util::Gauge* m_connections_ = nullptr;
  util::Gauge* m_inflight_ = nullptr;
  util::Gauge* m_lane_depth_[2] = {nullptr, nullptr};
  util::Gauge* m_state_ = nullptr;  ///< ServerState as a number
  util::Histogram* m_request_wall_s_ = nullptr;
  util::Histogram* m_queue_wait_s_ = nullptr;
  /// Deferred reply's kick to the I/O thread's next send of that buffer.
  util::Histogram* m_flush_wait_s_ = nullptr;
  util::Histogram* m_retry_after_ms_ = nullptr;

  /// Single writer for state_ + its gauge mirror (start/stop/drain paths).
  void set_state(ServerState next) noexcept;
};

}  // namespace fast::server

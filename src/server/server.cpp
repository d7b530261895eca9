#include "server/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>

#include "util/env.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace fast::server {

namespace {

storage::Status posix_error(const char* what) {
  return storage::Status::error(storage::StatusCode::kIoError,
                                std::string(what) + ": " +
                                    std::strerror(errno));
}

bool is_mutation(Op op) {
  switch (op) {
    case Op::kInsert:
    case Op::kInsertBatch:
    case Op::kErase:
    case Op::kEraseBatch:
      return true;
    case Op::kPing:
    case Op::kQuery:
    case Op::kQueryBatch:
    case Op::kMetrics:
    case Op::kHello:
      return false;
  }
  return false;
}

/// Best-effort op/seq peek from the fixed 9-byte body prefix, so the I/O
/// thread can answer rejections with the client's seq without paying for a
/// full parse. An out-of-range op byte is clamped to kPing — the client
/// matches responses by seq, not op.
void peek_header(const std::vector<std::uint8_t>& body, Op* op,
                 std::uint64_t* seq) {
  util::ByteReader r{body};
  const std::uint8_t op_byte = r.u8();
  *seq = r.u64();
  *op = op_byte <= static_cast<std::uint8_t>(Op::kHello)
            ? static_cast<Op>(op_byte)
            : Op::kPing;
}

/// EWMA smoothing for per-lane service time: heavy enough history that one
/// outlier does not swing the hint, fresh enough to track load shifts.
constexpr double kEwmaAlpha = 0.2;

}  // namespace

Lane lane_of(Op op) noexcept {
  return is_mutation(op) ? Lane::kBulk : Lane::kQuery;
}

std::uint32_t compute_retry_after_ms(std::size_t queue_depth,
                                     double ewma_service_us,
                                     std::uint32_t base_ms,
                                     std::uint32_t max_ms) noexcept {
  if (max_ms < base_ms) max_ms = base_ms;
  if (!(ewma_service_us > 0.0)) ewma_service_us = 0.0;  // also rejects NaN
  const double backlog_ms =
      static_cast<double>(queue_depth) * ewma_service_us / 1000.0;
  const double hint = static_cast<double>(base_ms) + backlog_ms;
  if (hint >= static_cast<double>(max_ms)) return max_ms;
  return static_cast<std::uint32_t>(std::lround(hint));
}

/// Per-tenant QoS state. The token bucket and quota fields are touched by
/// the I/O thread only (all admission decisions happen there); `inflight`
/// is also decremented by workers on completion, hence atomic.
struct Server::TenantState {
  std::uint16_t id = 0;
  double rate = 0.0;
  double burst = 0.0;
  std::size_t inflight_limit = 0;
  double tokens = 0.0;
  std::chrono::steady_clock::time_point last_refill{};
  std::atomic<std::size_t> inflight{0};
  util::Counter* m_requests = nullptr;  ///< every frame from this tenant
  util::Counter* m_rejected = nullptr;  ///< window/quota rejections
  util::Counter* m_ops = nullptr;       ///< executed requests
};

ServerOptions ServerOptions::from_env(ServerOptions defaults) {
  if (const auto port = util::env_count("FAST_SERVER_PORT", 0, 65535)) {
    defaults.port = static_cast<std::uint16_t>(*port);
  }
  if (const auto workers = util::env_count("FAST_SERVER_WORKERS", 1, 1024)) {
    defaults.workers = static_cast<std::size_t>(*workers);
  }
  if (const auto depth = util::env_count("FAST_SERVER_QUEUE", 1, 1u << 20)) {
    defaults.queue_depth = static_cast<std::size_t>(*depth);
  }
  if (const auto weight =
          util::env_count("FAST_SERVER_QUERY_WEIGHT", 1, 1024)) {
    defaults.query_weight = static_cast<std::size_t>(*weight);
  }
  if (const auto base = util::env_count("FAST_SERVER_RETRY_MS", 1, 60000)) {
    defaults.retry_after_ms = static_cast<std::uint32_t>(*base);
  }
  if (const auto max =
          util::env_count("FAST_SERVER_RETRY_MAX_MS", 1, 600000)) {
    defaults.retry_max_ms = static_cast<std::uint32_t>(*max);
  }
  if (const auto rate =
          util::env_number("FAST_SERVER_TENANT_RATE", 0.0, 1e9)) {
    defaults.tenant_rate = *rate;
  }
  if (const auto burst =
          util::env_number("FAST_SERVER_TENANT_BURST", 1.0, 1e9)) {
    defaults.tenant_burst = *burst;
  }
  if (const auto inflight =
          util::env_count("FAST_SERVER_TENANT_INFLIGHT", 0, 1u << 20)) {
    defaults.tenant_inflight = static_cast<std::size_t>(*inflight);
  }
  return defaults;
}

Server::Server(core::QueryEngine& engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {
  util::MetricsRegistry& r = engine_.metrics();
  m_accepted_ = &r.counter("server.accepted");
  m_requests_ = &r.counter("server.requests");
  m_rejected_retry_ = &r.counter("server.rejected_retry_after");
  m_rejected_draining_ = &r.counter("server.rejected_draining");
  m_bad_requests_ = &r.counter("server.bad_requests");
  m_bytes_in_ = &r.counter("server.bytes_in");
  m_bytes_out_ = &r.counter("server.bytes_out");
  m_replies_direct_ = &r.counter("server.replies_direct");
  m_replies_deferred_ = &r.counter("server.replies_deferred");
  m_lane_executed_[0] = &r.counter("server.lane.query.executed");
  m_lane_executed_[1] = &r.counter("server.lane.bulk.executed");
  m_connections_ = &r.gauge("server.connections");
  m_inflight_ = &r.gauge("server.inflight");
  m_lane_depth_[0] = &r.gauge("server.lane.query.queue_depth");
  m_lane_depth_[1] = &r.gauge("server.lane.bulk.queue_depth");
  m_state_ = &r.gauge("server.state");
  m_state_->set(static_cast<double>(
      static_cast<std::uint8_t>(ServerState::kStarting)));
  m_request_wall_s_ = &r.latency_histogram("server.request_wall_s");
  m_queue_wait_s_ = &r.latency_histogram("server.queue_wait_s");
  m_flush_wait_s_ = &r.latency_histogram("server.flush_wait_s");
  m_retry_after_ms_ = &r.histogram(
      "server.retry_after_ms",
      {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000});
  workers_held_ = options_.debug_hold_workers;
}

Server::~Server() { stop(); }

void Server::set_state(ServerState next) noexcept {
  state_.store(static_cast<std::uint8_t>(next), std::memory_order_release);
  m_state_->set(static_cast<double>(static_cast<std::uint8_t>(next)));
}

void Server::enter_draining() noexcept {
  // CAS keeps the lifecycle monotone: only kServing may move to kDraining,
  // so a late enter_draining() cannot resurrect a stopped server's gauge.
  std::uint8_t expected = static_cast<std::uint8_t>(ServerState::kServing);
  if (state_.compare_exchange_strong(
          expected, static_cast<std::uint8_t>(ServerState::kDraining),
          std::memory_order_acq_rel)) {
    m_state_->set(static_cast<double>(
        static_cast<std::uint8_t>(ServerState::kDraining)));
  }
}

storage::Status Server::start() {
  if (running_.load(std::memory_order_acquire)) {
    return storage::Status::error(storage::StatusCode::kIoError,
                                  "server already running");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return posix_error("socket");
  const auto fail = [this](const char* what) {
    storage::Status s = posix_error(what);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
    return s;
  };

  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_addr.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return storage::Status::error(storage::StatusCode::kIoError,
                                  "bad bind address: " + options_.bind_addr);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, 128) != 0) return fail("listen");
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return fail("getsockname");
  }
  bound_port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return fail("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return fail("eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return fail("epoll_ctl(listen)");
  }
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return fail("epoll_ctl(wake)");
  }

  draining_.store(false, std::memory_order_release);
  io_stop_.store(false, std::memory_order_release);
  workers_stop_ = false;
  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { io_loop(); });
  const std::size_t n = std::max<std::size_t>(1, options_.workers);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  set_state(ServerState::kServing);
  return {};
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Readiness flips first (no-op if enter_draining() already ran), so an
  // admin-plane /readyz is 503 before the listener closes below.
  enter_draining();
  const auto kick = [this] {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(wake_fd_, &one, sizeof(one));
  };
  // 1. Stop admitting: new frames answer kShuttingDown, and the I/O thread
  //    closes the listen socket at its next wakeup. A test-held worker
  //    pool is released — drain must always make progress.
  //    The store and the admitted_ reads below are seq_cst: they pair
  //    with handle_frame's count-then-check admission.
  draining_.store(true);
  {
    std::lock_guard<std::mutex> lk(work_mutex_);
    workers_held_ = false;
  }
  work_cv_.notify_all();
  kick();
  // 2. Drain: every admitted request executes and its response is sent or
  //    buffered.
  {
    std::unique_lock<std::mutex> lk(drain_mutex_);
    while (admitted_.load() != 0) {
      drain_cv_.wait_for(lk, std::chrono::milliseconds(50));
    }
  }
  // 3. Join the workers — the work queues are empty and stay empty.
  {
    std::lock_guard<std::mutex> lk(work_mutex_);
    workers_stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  // 4. The I/O thread flushes every response buffer (bounded wait for
  //    clients that stopped reading), closes the sockets, and exits.
  io_stop_.store(true, std::memory_order_release);
  kick();
  io_thread_.join();
  // 5. Acked writes hit disk before we return: fsync the WAL group-commit
  //    tail through the facade.
  if (engine_.durable()) {
    const storage::Status st = engine_.sync_wal();
    if (!st.ok()) {
      std::fprintf(stderr, "fast_server: final wal sync failed: %s\n",
                   st.message().c_str());
    }
  }
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  wake_fd_ = epoll_fd_ = -1;
  // The I/O thread normally closed the listen socket when it saw
  // draining_; cover the path where it exited before noticing.
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  set_state(ServerState::kStopped);
}

void Server::debug_hold_workers(bool hold) {
  {
    std::lock_guard<std::mutex> lk(work_mutex_);
    workers_held_ = hold;
  }
  work_cv_.notify_all();
}

std::uint32_t Server::current_retry_after_ms(Lane lane) const noexcept {
  const std::size_t i = static_cast<std::size_t>(lane);
  const double ewma_us = std::bit_cast<double>(
      lane_ewma_us_bits_[i].load(std::memory_order_relaxed));
  return compute_retry_after_ms(
      lane_depth_[i].load(std::memory_order_relaxed), ewma_us,
      options_.retry_after_ms, options_.retry_max_ms);
}

void Server::io_loop() {
  std::array<epoll_event, 64> events;
  bool flush_deadline_set = false;
  std::chrono::steady_clock::time_point flush_deadline{};
  while (true) {
    if (draining_.load(std::memory_order_acquire) && listen_fd_ >= 0) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (io_stop_.load(std::memory_order_acquire)) {
      if (!flush_deadline_set) {
        flush_deadline_set = true;
        flush_deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
      }
      if (all_flushed() ||
          std::chrono::steady_clock::now() >= flush_deadline) {
        break;
      }
    }
    const int timeout_ms = flush_deadline_set ? 20 : 200;
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_ && fd >= 0) {
        accept_ready();
        continue;
      }
      if (fd == wake_fd_) {
        std::uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof(drained)) ==
               static_cast<ssize_t>(sizeof(drained))) {
        }
        std::vector<std::weak_ptr<Conn>> pending;
        {
          std::lock_guard<std::mutex> lk(wake_mutex_);
          pending.swap(pending_flush_);
        }
        for (const auto& weak : pending) {
          if (auto conn = weak.lock()) flush_conn(conn);
        }
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      // Copy: close_conn erases the map entry mid-handling.
      const std::shared_ptr<Conn> conn = it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        close_conn(conn);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) conn_readable(conn);
      if ((events[i].events & EPOLLOUT) != 0 &&
          conns_.find(fd) != conns_.end()) {
        conn_writable(conn);
      }
    }
  }
  // Exit: drop whatever connections remain (drained or past the deadline).
  std::vector<std::shared_ptr<Conn>> remaining;
  remaining.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) remaining.push_back(conn);
  for (const auto& conn : remaining) close_conn(conn);
}

void Server::accept_ready() {
  while (listen_fd_ >= 0) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error; epoll retriggers
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(fd, std::move(conn));
    connections_.fetch_add(1, std::memory_order_relaxed);
    m_accepted_->add();
    m_connections_->set(static_cast<double>(conns_.size()));
  }
}

void Server::conn_readable(const std::shared_ptr<Conn>& conn) {
  std::array<std::uint8_t, 65536> buf;
  std::vector<std::uint8_t> body;
  while (true) {
    const ssize_t n = ::recv(conn->fd, buf.data(), buf.size(), 0);
    if (n > 0) {
      m_bytes_in_->add(static_cast<std::uint64_t>(n));
      conn->assembler.feed({buf.data(), static_cast<std::size_t>(n)});
      while (conn->assembler.next(&body)) {
        handle_frame(conn, std::move(body));
        body.clear();
      }
      if (conn->assembler.error()) {
        close_conn(conn);
        return;
      }
      continue;
    }
    if (n == 0) {
      close_conn(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    close_conn(conn);
    return;
  }
}

void Server::conn_writable(const std::shared_ptr<Conn>& conn) {
  flush_conn(conn);
}

const std::shared_ptr<Server::TenantState>& Server::tenant_state(
    std::uint16_t id) {
  auto it = tenants_.find(id);
  if (it != tenants_.end()) return it->second;
  auto state = std::make_shared<TenantState>();
  state->id = id;
  state->rate = options_.tenant_rate;
  state->burst = options_.tenant_burst;
  state->inflight_limit = options_.tenant_inflight;
  for (const TenantQuota& q : options_.tenant_quotas) {
    if (q.tenant == id) {
      state->rate = q.rate;
      state->burst = q.burst;
      state->inflight_limit = q.inflight;
    }
  }
  state->burst = std::max(1.0, state->burst);
  state->tokens = state->burst;  // full bucket at first sight
  state->last_refill = std::chrono::steady_clock::now();
  const std::string prefix = "server.tenant." + std::to_string(id);
  util::MetricsRegistry& r = engine_.metrics();
  state->m_requests = &r.counter(prefix + ".requests");
  state->m_rejected = &r.counter(prefix + ".rejected");
  state->m_ops = &r.counter(prefix + ".ops");
  return tenants_.emplace(id, std::move(state)).first->second;
}

bool Server::admit_tenant(TenantState& tenant) {
  // Window first: a tenant at its admitted-inflight cap is rejected
  // without consuming a token, so its bucket is not drained by retries.
  if (tenant.inflight_limit > 0 &&
      tenant.inflight.load(std::memory_order_relaxed) >=
          tenant.inflight_limit) {
    return false;
  }
  if (tenant.rate > 0.0) {
    const auto now = std::chrono::steady_clock::now();
    const double elapsed_s =
        std::chrono::duration<double>(now - tenant.last_refill).count();
    tenant.last_refill = now;
    tenant.tokens =
        std::min(tenant.burst, tenant.tokens + elapsed_s * tenant.rate);
    if (tenant.tokens < 1.0) return false;
    tenant.tokens -= 1.0;
  }
  return true;
}

void Server::handle_frame(const std::shared_ptr<Conn>& conn,
                          std::vector<std::uint8_t> body) {
  if (body.size() < kMinBodyBytes) {
    Response resp;
    resp.status = Status::kBadRequest;
    resp.text = "truncated header";
    m_bad_requests_->add();
    send_response(conn, resp);
    return;
  }
  Response reject;
  peek_header(body, &reject.op, &reject.seq);
  const Lane lane = lane_of(reject.op);
  const std::size_t lane_idx = static_cast<std::size_t>(lane);
  const auto reject_draining = [&] {
    reject.status = Status::kShuttingDown;
    reject.retry_after_ms = current_retry_after_ms(lane);
    reject.text = "shutting down";
    m_rejected_draining_->add();
    m_retry_after_ms_->observe(static_cast<double>(reject.retry_after_ms));
    send_response(conn, reject);
  };
  if (draining_.load(std::memory_order_acquire)) {
    reject_draining();
    return;
  }
  // kHello binds the connection's tenant inline on the I/O thread: it is
  // the QoS control plane, never queued, never counted against a quota.
  if (reject.op == Op::kHello) {
    Request request;
    std::string error;
    if (!decode_request(body, &request, &error)) {
      reject.status = Status::kBadRequest;
      reject.text = error;
      m_bad_requests_->add();
      send_response(conn, reject);
      return;
    }
    conn->tenant = tenant_state(request.tenant);
    // Capability negotiation: accept the subset we implement and echo it,
    // so the client knows exactly which extensions are live.
    conn->caps = request.caps & kCapServerTiming;
    reject.status = Status::kOk;
    reject.caps = conn->caps;
    send_response(conn, reject);
    return;
  }
  if (conn->tenant == nullptr) conn->tenant = tenant_state(0);
  TenantState& tenant = *conn->tenant;
  tenant.m_requests->add();
  const bool conn_window_ok =
      conn->inflight.load(std::memory_order_relaxed) < options_.queue_depth;
  if (!conn_window_ok || !admit_tenant(tenant)) {
    reject.status = Status::kRetryAfter;
    reject.retry_after_ms = current_retry_after_ms(lane);
    m_rejected_retry_->add();
    tenant.m_rejected->add();
    m_retry_after_ms_->observe(static_cast<double>(reject.retry_after_ms));
    send_response(conn, reject);
    return;
  }
  // Count the request into the drain before the final draining_ check.
  // stop() stores draining_ before it reads admitted_, all four accesses
  // seq_cst, so either stop() waits for this request or the check below
  // sees the drain; a request admitted after stop() stopped waiting would
  // never run and never be answered.
  const std::size_t inflight = admitted_.fetch_add(1) + 1;
  if (draining_.load()) {
    if (admitted_.fetch_sub(1) == 1) {
      std::lock_guard<std::mutex> lk(drain_mutex_);
      drain_cv_.notify_all();
    }
    reject_draining();
    return;
  }
  m_inflight_->set(static_cast<double>(inflight));
  conn->inflight.fetch_add(1, std::memory_order_relaxed);
  tenant.inflight.fetch_add(1, std::memory_order_relaxed);
  const std::size_t depth =
      lane_depth_[lane_idx].fetch_add(1, std::memory_order_acq_rel) + 1;
  m_lane_depth_[lane_idx]->set(static_cast<double>(depth));
  {
    std::lock_guard<std::mutex> lk(work_mutex_);
    WorkItem item{conn, conn->tenant, lane, std::move(body),
                  std::chrono::steady_clock::now(),
                  (conn->caps & kCapServerTiming) != 0};
    (lane == Lane::kBulk ? lane_bulk_ : lane_query_)
        .push_back(std::move(item));
  }
  work_cv_.notify_one();
}

bool Server::pop_work(WorkItem* item) {
  std::unique_lock<std::mutex> lk(work_mutex_);
  work_cv_.wait(lk, [this] {
    if (workers_stop_) return true;
    if (workers_held_) return false;
    return !lane_query_.empty() || !lane_bulk_.empty();
  });
  if (lane_query_.empty() && lane_bulk_.empty()) {
    return false;  // workers_stop_ with drained lanes
  }
  // Weighted round-robin: when both lanes are backlogged, serve
  // query_weight queries per bulk item — queries overtake bulk ingest but
  // bulk always makes progress. A lone non-empty lane drains at full
  // speed and does not advance the credit counter, so the ratio is exact
  // under contention (the deterministic lane tests assert the sequence).
  const std::size_t weight = std::max<std::size_t>(1, options_.query_weight);
  std::deque<WorkItem>* lane = nullptr;
  if (lane_query_.empty()) {
    lane = &lane_bulk_;
  } else if (lane_bulk_.empty()) {
    lane = &lane_query_;
  } else if (queries_since_bulk_ >= weight) {
    queries_since_bulk_ = 0;
    lane = &lane_bulk_;
  } else {
    ++queries_since_bulk_;
    lane = &lane_query_;
  }
  *item = std::move(lane->front());
  lane->pop_front();
  lk.unlock();
  const std::size_t lane_idx = static_cast<std::size_t>(item->lane);
  const std::size_t depth =
      lane_depth_[lane_idx].fetch_sub(1, std::memory_order_acq_rel) - 1;
  m_lane_depth_[lane_idx]->set(static_cast<double>(depth));
  return true;
}

void Server::worker_loop() {
  while (true) {
    WorkItem item;
    if (!pop_work(&item)) return;
    // Queue wait = admission (I/O thread) to pickup (here). Always
    // observed; also the queue_ns half of the negotiated timing trailer.
    const double queue_wait_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      item.admitted_at)
            .count();
    m_queue_wait_s_->observe(queue_wait_s);
    util::WallTimer timer;
    Request request;
    std::string error;
    Response response;
    if (decode_request(item.body, &request, &error)) {
      response = execute(request, item);
    } else {
      response.op = request.op;  // decode fills op/seq when readable
      response.seq = request.seq;
      response.status = Status::kBadRequest;
      response.text = error;
      m_bad_requests_->add();
    }
    const double wall_s = timer.elapsed_seconds();
    if (item.want_timing) {
      response.has_timing = true;
      response.queue_ns = static_cast<std::uint64_t>(
          std::max(0.0, queue_wait_s) * 1e9);
      response.exec_ns = static_cast<std::uint64_t>(
          std::max(0.0, wall_s) * 1e9);
    }
    m_requests_->add();
    m_request_wall_s_->observe(wall_s);
    const std::size_t lane_idx = static_cast<std::size_t>(item.lane);
    m_lane_executed_[lane_idx]->add();
    item.tenant->m_ops->add();
    // Fold the observed service time into the lane's EWMA (lossy relaxed
    // exchange: concurrent workers may overwrite each other's fold, which
    // only costs one sample of smoothing accuracy).
    {
      const double sample_us = wall_s * 1e6;
      auto& bits = lane_ewma_us_bits_[lane_idx];
      const double prev =
          std::bit_cast<double>(bits.load(std::memory_order_relaxed));
      const double next =
          prev <= 0.0 ? sample_us
                      : prev * (1.0 - kEwmaAlpha) + sample_us * kEwmaAlpha;
      bits.store(std::bit_cast<std::uint64_t>(next),
                 std::memory_order_relaxed);
    }
    // Send or buffer the response BEFORE dropping the inflight/drain
    // counts: once stop() observes a drained server, every admitted
    // request's response is on the wire or in an output buffer.
    send_response(item.conn, response);
    item.conn->inflight.fetch_sub(1, std::memory_order_relaxed);
    item.tenant->inflight.fetch_sub(1, std::memory_order_relaxed);
    const std::size_t left =
        admitted_.fetch_sub(1, std::memory_order_acq_rel) - 1;
    m_inflight_->set(static_cast<double>(left));
    if (left == 0 && draining_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lk(drain_mutex_);
      drain_cv_.notify_all();
    }
  }
}

Response Server::execute(const Request& request, const WorkItem& item) {
  Response response;
  response.op = request.op;
  response.seq = request.seq;
  util::TraceSpan span("server.request");
  span.attr("op", static_cast<double>(static_cast<std::uint8_t>(request.op)));
  span.attr("lane", static_cast<double>(static_cast<std::uint8_t>(item.lane)));
  span.attr("tenant", static_cast<double>(item.tenant->id));
  if (options_.debug_request_delay_us > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.debug_request_delay_us));
  }
  // Reject geometry mismatches before the backend FAST_CHECKs them: a
  // client built against different bloom_bits is a bad request, not a
  // server crash.
  const auto want_bits =
      static_cast<std::uint32_t>(engine_.config().bloom_bits);
  for (const hash::SparseSignature& sig : request.sigs) {
    if (sig.bit_count() != want_bits) {
      response.status = Status::kBadRequest;
      response.text = "signature geometry mismatch";
      m_bad_requests_->add();
      return response;
    }
  }
  try {
    switch (request.op) {
      case Op::kPing:
      case Op::kHello:  // handled inline on the I/O thread; kOk here
        break;
      case Op::kInsert:
      case Op::kInsertBatch: {
        std::vector<core::EngineWrite> items(request.sigs.size());
        for (std::size_t i = 0; i < items.size(); ++i) {
          items[i].id = request.insert_ids[i];
          items[i].signature = request.sigs[i];
        }
        const auto results = engine_.insert_batch(items);
        response.count = static_cast<std::uint32_t>(results.size());
        break;
      }
      case Op::kQuery:
      case Op::kQueryBatch: {
        const std::size_t k =
            std::min<std::uint32_t>(request.k == 0 ? 10 : request.k, 1u << 16);
        response.results.reserve(request.sigs.size());
        for (const hash::SparseSignature& sig : request.sigs) {
          response.results.push_back(engine_.query_signature(sig, k).hits);
        }
        break;
      }
      case Op::kErase:
      case Op::kEraseBatch:
        response.count =
            static_cast<std::uint32_t>(engine_.erase_batch(request.ids));
        break;
      case Op::kMetrics:
        // Refresh process.{rss_bytes,open_fds,threads,uptime_s} so the
        // binary scrape op matches the admin plane's /metrics.
        util::sample_process_gauges(engine_.metrics());
        response.text = engine_.metrics().to_prometheus();
        break;
    }
  } catch (const std::exception& e) {
    response.results.clear();
    response.count = 0;
    response.status = Status::kError;
    response.text = e.what();
  }
  return response;
}

void Server::send_response(const std::shared_ptr<Conn>& conn,
                           const Response& response) {
  const std::vector<std::uint8_t> framed = frame(encode_response(response));
  {
    std::lock_guard<std::mutex> lk(conn->mu);
    if (conn->closed) return;  // client went away; nothing to ack
    // Nothing queued ahead: send straight from this thread, so an idle
    // I/O thread is not woken just to call send(). close_conn marks the
    // connection closed under this lock before it closes the fd, so the fd
    // is still ours here.
    std::size_t sent = 0;
    if (conn->out_off == conn->out.size()) {
      while (sent < framed.size()) {
        const ssize_t n =
            ::send(conn->fd, framed.data() + sent, framed.size() - sent,
                   MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
          sent += static_cast<std::size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          break;  // EAGAIN or an error: the I/O thread handles the rest
        }
      }
      if (sent > 0) m_bytes_out_->add(sent);
      if (sent == framed.size()) {
        m_replies_direct_->add();
        return;
      }
    }
    // Queue the unsent tail behind whatever is already buffered; the I/O
    // thread flushes it, arms EPOLLOUT or drops the connection.
    conn->out.insert(conn->out.end(),
                     framed.begin() + static_cast<std::ptrdiff_t>(sent),
                     framed.end());
    if (conn->deferred_at == std::chrono::steady_clock::time_point{}) {
      conn->deferred_at = std::chrono::steady_clock::now();
    }
  }
  m_replies_deferred_->add();
  {
    std::lock_guard<std::mutex> lk(wake_mutex_);
    pending_flush_.push_back(conn);
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void Server::flush_conn(const std::shared_ptr<Conn>& conn) {
  bool drop = false;
  bool want_write = false;
  {
    std::lock_guard<std::mutex> lk(conn->mu);
    if (conn->closed) return;
    while (conn->out_off < conn->out.size()) {
      const ssize_t n =
          ::send(conn->fd, conn->out.data() + conn->out_off,
                 conn->out.size() - conn->out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_off += static_cast<std::size_t>(n);
        m_bytes_out_->add(static_cast<std::uint64_t>(n));
        if (conn->deferred_at != std::chrono::steady_clock::time_point{}) {
          m_flush_wait_s_->observe(
              std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - conn->deferred_at)
                  .count());
          conn->deferred_at = {};
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        want_write = true;
        break;
      }
      if (n < 0 && errno == EINTR) continue;
      drop = true;
      break;
    }
    if (conn->out_off == conn->out.size()) {
      conn->out.clear();
      conn->out_off = 0;
    } else if (conn->out_off > (1u << 20) &&
               conn->out_off > conn->out.size() / 2) {
      conn->out.erase(conn->out.begin(),
                      conn->out.begin() +
                          static_cast<std::ptrdiff_t>(conn->out_off));
      conn->out_off = 0;
    }
    if (!drop &&
        conn->out.size() - conn->out_off > options_.max_outbuf_bytes) {
      drop = true;  // client stopped reading; shed it
    }
  }
  if (drop) {
    close_conn(conn);
    return;
  }
  if (want_write != conn->want_write) update_epoll(*conn, want_write);
}

void Server::close_conn(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> lk(conn->mu);
    if (conn->closed) return;
    conn->closed = true;
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(conn->fd);
  connections_.fetch_sub(1, std::memory_order_relaxed);
  m_connections_->set(static_cast<double>(conns_.size()));
}

void Server::update_epoll(Conn& conn, bool want_write) {
  epoll_event ev{};
  ev.events = static_cast<std::uint32_t>(EPOLLIN) |
              (want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.want_write = want_write;
}

bool Server::all_flushed() {
  for (const auto& [fd, conn] : conns_) {
    std::lock_guard<std::mutex> lk(conn->mu);
    if (conn->out.size() - conn->out_off != 0) return false;
  }
  return true;
}

}  // namespace fast::server

#include "wire_loop.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <string>
#include <unordered_map>

#include "schedule.hpp"
#include "spans.hpp"

namespace servebench {

namespace {

namespace srv = fast::server;

constexpr std::size_t kBodySamples = 512;

struct Pending {
  Op::Kind kind = Op::kQuery;
  std::uint64_t id = 0;
};

struct Conn {
  int fd = -1;
  srv::FrameAssembler assembler;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::uint64_t next_seq = 1;
  std::unordered_map<std::uint64_t, Pending> pending;
  bool dead = false;
};

std::uint64_t book_key(std::size_t conn, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(conn) << 48) | seq;
}

bool write_all_blocking(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Blocks for the next frame on a blocking socket.
bool read_frame_blocking(int fd, srv::FrameAssembler* assembler,
                         std::vector<std::uint8_t>* body) {
  std::uint8_t buf[4096];
  while (!assembler->next(body)) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0 || assembler->error()) return false;
    assembler->feed({buf, static_cast<std::size_t>(n)});
  }
  return true;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// Connects and, when asked, negotiates the server-timing capability.
bool open_conn(std::uint16_t port, bool server_timing, Conn* conn) {
  conn->fd = connect_loopback(port);
  if (conn->fd < 0) return false;
  if (server_timing) {
    if (!write_all_blocking(conn->fd, srv::frame(srv::encode_hello(
                                          0, 0, srv::kCapServerTiming)))) {
      return false;
    }
    std::vector<std::uint8_t> body;
    srv::Response hello;
    std::string error;
    if (!read_frame_blocking(conn->fd, &conn->assembler, &body) ||
        !srv::decode_response(body, &hello, &error) ||
        hello.status != srv::Status::kOk ||
        (hello.caps & srv::kCapServerTiming) == 0) {
      return false;
    }
  }
  return ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL) | O_NONBLOCK) ==
         0;
}

/// Writes as much buffered output as the socket takes; false on error.
bool flush(Conn* conn) {
  while (conn->out_off < conn->out.size()) {
    const ssize_t n = ::write(conn->fd, conn->out.data() + conn->out_off,
                              conn->out.size() - conn->out_off);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n <= 0) return false;
    conn->out_off += static_cast<std::size_t>(n);
  }
  conn->out.clear();
  conn->out_off = 0;
  return true;
}

class PhaseRunner {
 public:
  PhaseRunner(const PhaseOptions& options, OpSource& source,
              const ResponseSink& sink)
      : options_(options), source_(source), sink_(sink) {}

  PhaseResult run(std::uint16_t port) {
    conns_.resize(std::max<std::size_t>(1, options_.connections));
    for (Conn& c : conns_) {
      if (!open_conn(port, options_.server_timing, &c)) {
        ++result_.transport;
        c.dead = true;
      }
    }
    start_ns_ = now_ns();
    end_ns_ = start_ns_ +
              static_cast<std::int64_t>(options_.duration_s * 1e9);
    if (options_.rate > 0.0) {
      run_open();
    } else {
      run_closed();
    }
    result_.unanswered += book_.outstanding();
    result_.duration_s = static_cast<double>(end_ns_ - start_ns_) * 1e-9;
    result_.lag_ms = book_.lag_ms();
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    return std::move(result_);
  }

 private:
  void send_on(std::size_t ci, std::int64_t due_ns) {
    Conn& c = conns_[ci];
    const std::uint64_t seq = c.next_seq++;
    Op op = source_.next(seq);
    auto& samples = result_.request_bodies[op.kind];
    if (samples.size() < kBodySamples) samples.push_back(op.body);
    const std::vector<std::uint8_t> framed = srv::frame(op.body);
    result_.request_bytes += framed.size();
    c.out.insert(c.out.end(), framed.begin(), framed.end());
    c.pending.emplace(seq, Pending{op.kind, op.id});
    ++result_.sent;
    const std::int64_t sent = now_ns();
    book_.on_send(book_key(ci, seq), due_ns < 0 ? sent : due_ns, sent);
    if (!flush(&c)) fail_conn(ci);
  }

  void fail_conn(std::size_t ci) {
    Conn& c = conns_[ci];
    if (c.dead) return;
    c.dead = true;
    ++result_.transport;
  }

  /// Waits up to `timeout_ns` for socket activity and handles every
  /// complete response; returns the conns that got answers.
  std::vector<std::size_t> poll_once(std::int64_t timeout_ns) {
    std::vector<pollfd> fds;
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      const Conn& c = conns_[i];
      if (c.dead) continue;
      short events = POLLIN;
      if (c.out_off < c.out.size()) events |= POLLOUT;
      fds.push_back(pollfd{c.fd, events, 0});
      idx.push_back(i);
    }
    std::vector<std::size_t> answered;
    if (fds.empty()) return answered;
    timeout_ns = std::max<std::int64_t>(0, timeout_ns);
    timespec ts{static_cast<time_t>(timeout_ns / 1000000000),
                static_cast<long>(timeout_ns % 1000000000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) return answered;
    std::uint8_t buf[65536];
    for (std::size_t k = 0; k < fds.size(); ++k) {
      const std::size_t ci = idx[k];
      Conn& c = conns_[ci];
      if ((fds[k].revents & POLLOUT) != 0 && !flush(&c)) {
        fail_conn(ci);
        continue;
      }
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t n = ::read(c.fd, buf, sizeof buf);
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
      if (n <= 0) {
        fail_conn(ci);
        continue;
      }
      const std::int64_t recv_ns = now_ns();
      c.assembler.feed({buf, static_cast<std::size_t>(n)});
      if (c.assembler.error()) {
        fail_conn(ci);
        continue;
      }
      std::vector<std::uint8_t> body;
      while (c.assembler.next(&body)) {
        if (handle(ci, body, recv_ns)) answered.push_back(ci);
      }
    }
    return answered;
  }

  bool handle(std::size_t ci, const std::vector<std::uint8_t>& body,
              std::int64_t recv_ns) {
    Conn& c = conns_[ci];
    result_.response_bytes += body.size() + 4;
    srv::Response response;
    std::string error;
    if (!srv::decode_response(body, &response, &error)) {
      ++result_.error;
      ++result_.undecodable;
      return false;
    }
    const auto it = c.pending.find(response.seq);
    if (it == c.pending.end()) {
      ++result_.error;
      return false;
    }
    const Pending pending = it->second;
    c.pending.erase(it);
    const std::optional<double> latency =
        book_.on_response(book_key(ci, response.seq), recv_ns);
    switch (response.status) {
      case srv::Status::kOk: {
        ++result_.ok;
        const double ms = latency.value_or(0.0);
        const double t = static_cast<double>(recv_ns - start_ns_) * 1e-9;
        (pending.kind == Op::kQuery ? result_.query_ms : result_.write_ms)
            .push_back(ms);
        (pending.kind == Op::kQuery ? result_.query_t : result_.write_t)
            .push_back(t);
        result_.ok_t.push_back(t);
        if (response.has_timing && pending.kind == Op::kQuery) {
          const double queue = static_cast<double>(response.queue_ns) * 1e-6;
          const double exec = static_cast<double>(response.exec_ns) * 1e-6;
          result_.queue_ms.push_back(queue);
          result_.exec_ms.push_back(exec);
          result_.net_ms.push_back(std::max(0.0, ms - queue - exec));
        }
        auto& samples = result_.response_bodies[pending.kind];
        if (samples.size() < kBodySamples) samples.push_back(body);
        if (sink_) {
          Op op;
          op.kind = pending.kind;
          op.id = pending.id;
          sink_(op, response);
        }
        break;
      }
      case srv::Status::kRetryAfter:
        ++result_.retry;
        break;
      default:
        ++result_.error;
        break;
    }
    return true;
  }

  std::size_t outstanding() const {
    std::size_t n = 0;
    for (const Conn& c : conns_) {
      if (!c.dead) n += c.pending.size();
    }
    return n;
  }

  void run_open() {
    const std::vector<double> schedule = arrival_schedule(
        options_.rate, options_.duration_s, options_.schedule_seed);
    std::size_t next = 0;
    const std::int64_t drain_end =
        end_ns_ + static_cast<std::int64_t>(options_.drain_timeout_s * 1e9);
    while (true) {
      std::int64_t now = now_ns();
      while (next < schedule.size() &&
             start_ns_ + static_cast<std::int64_t>(schedule[next] * 1e9) <=
                 now) {
        const std::size_t ci = next % conns_.size();
        const std::int64_t due =
            start_ns_ + static_cast<std::int64_t>(schedule[next] * 1e9);
        ++next;
        if (conns_[ci].dead) {
          ++result_.sent;
          ++result_.unanswered;
          continue;
        }
        send_on(ci, due);
        now = now_ns();
      }
      if (next == schedule.size() && (outstanding() == 0 || now >= drain_end)) {
        break;
      }
      const std::int64_t wake =
          next < schedule.size()
              ? start_ns_ + static_cast<std::int64_t>(schedule[next] * 1e9)
              : drain_end;
      poll_once(wake - now);
    }
  }

  void run_closed() {
    const std::int64_t drain_end =
        end_ns_ + static_cast<std::int64_t>(options_.drain_timeout_s * 1e9);
    const auto may_send = [&] {
      return now_ns() < end_ns_ &&
             (options_.max_ops == 0 || result_.sent < options_.max_ops);
    };
    for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
      if (!conns_[ci].dead && may_send()) send_on(ci, -1);
    }
    while (outstanding() > 0 && now_ns() < drain_end) {
      for (const std::size_t ci : poll_once(drain_end - now_ns())) {
        if (!conns_[ci].dead && conns_[ci].pending.empty() && may_send()) {
          send_on(ci, -1);
        }
      }
    }
    if (options_.max_ops != 0) end_ns_ = std::min(end_ns_, now_ns());
  }

  const PhaseOptions& options_;
  OpSource& source_;
  const ResponseSink& sink_;
  std::vector<Conn> conns_;
  LatencyBook book_;
  PhaseResult result_;
  std::int64_t start_ns_ = 0;
  std::int64_t end_ns_ = 0;
};

}  // namespace

PhaseResult run_phase(std::uint16_t port, const PhaseOptions& options,
                      OpSource& source, const ResponseSink& sink) {
  return PhaseRunner(options, source, sink).run(port);
}

}  // namespace servebench

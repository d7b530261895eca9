// fast_server — standalone serving front door (README "Serving
// quick-start").
//
//   fast_server [--port=N] [--workers=N] [--queue=N] [--tiered]
//               [--dir=PATH] [--wal-sync-every=N] [--bloom-bits=N]
//               [--query-weight=N] [--retry-ms=N] [--retry-max-ms=N]
//               [--tenant-rate=R] [--tenant-burst=R] [--tenant-inflight=N]
//               [--tenant=ID:RATE:BURST:INFLIGHT]...
//               [--admin-port=N] [--drain-grace-ms=N]
//
// Serves the wire protocol of server/protocol.hpp over TCP on loopback.
// With --dir the engine opens (or recovers) a durable index there and every
// acked write is WAL-logged; without it the index is in-memory. SIGINT /
// SIGTERM trigger the graceful shutdown sequence: drain in-flight
// requests, flush response buffers, fsync the WAL, snapshot (durable
// runs), exit 0.
//
// QoS knobs (DESIGN.md §3i): --query-weight sets the lane ratio,
// --retry-ms/--retry-max-ms clamp the adaptive retry hint,
// --tenant-rate/--tenant-burst/--tenant-inflight are the default
// per-tenant quota and --tenant=ID:RATE:BURST:INFLIGHT overrides it for
// one tenant (repeatable).
//
// Observability (DESIGN.md §3j): --admin-port=N starts the HTTP admin
// plane (healthz/readyz/metrics/varz/statusz/tracez) on loopback port N
// (0 = disabled, the default). --drain-grace-ms=N turns SIGTERM into a
// two-phase shutdown: readiness flips to 503 immediately while the data
// plane keeps serving for N ms, THEN the normal drain begins — the window
// a load balancer needs to stop routing before connections are cut.
//
// Environment knobs (checked parsing, util/env.hpp): FAST_SERVER_PORT,
// FAST_SERVER_WORKERS, FAST_SERVER_QUEUE, FAST_SERVER_QUERY_WEIGHT,
// FAST_SERVER_RETRY_MS, FAST_SERVER_RETRY_MAX_MS, FAST_SERVER_TENANT_RATE,
// FAST_SERVER_TENANT_BURST, FAST_SERVER_TENANT_INFLIGHT,
// FAST_SERVER_ADMIN_PORT, FAST_SERVER_DRAIN_GRACE_MS — flags win over
// environment.
#include <sys/signalfd.h>
#include <unistd.h>

#include <array>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include <chrono>
#include <thread>

#include "core/query_engine.hpp"
#include "server/http_admin.hpp"
#include "server/server.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"
#include "util/vecmath.hpp"
#include "vision/pca.hpp"

namespace {

int g_signal_pipe[2] = {-1, -1};

extern "C" void on_signal(int) {
  const unsigned char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

/// The serving path only moves precomputed signatures (the paper's mobile
/// clients summarize on-device), so the engine's PCA model is never
/// exercised by wire requests; a deterministic random eigenspace keeps the
/// index constructible without a training corpus.
fast::vision::PcaModel placeholder_pca() {
  fast::vision::PcaModel model;
  const std::size_t input_dim = 578, output_dim = 36;
  model.mean.assign(input_dim, 0.0f);
  model.eigenvalues.assign(output_dim, 1.0f / static_cast<float>(input_dim));
  fast::util::Rng rng(0xfa57);
  model.components.resize(output_dim);
  for (auto& row : model.components) {
    row.resize(input_dim);
    for (auto& v : row) v = static_cast<float>(rng.gaussian());
    fast::util::normalize_l2(row);
  }
  return model;
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port=N] [--workers=N] [--queue=N] [--tiered]\n"
      "          [--dir=PATH] [--wal-sync-every=N] [--bloom-bits=N]\n"
      "          [--query-weight=N] [--retry-ms=N] [--retry-max-ms=N]\n"
      "          [--tenant-rate=R] [--tenant-burst=R] [--tenant-inflight=N]\n"
      "          [--tenant=ID:RATE:BURST:INFLIGHT]...\n"
      "          [--admin-port=N] [--drain-grace-ms=N]\n",
      argv0);
  return 2;
}

/// Parses one --tenant=ID:RATE:BURST:INFLIGHT override.
bool parse_tenant_quota(const std::string& value,
                        fast::server::TenantQuota* out) {
  std::array<std::string, 4> part;
  std::size_t start = 0, n = 0;
  for (; n < part.size(); ++n) {
    const std::size_t colon = value.find(':', start);
    if (colon == std::string::npos) {
      part[n] = value.substr(start);
      ++n;
      break;
    }
    part[n] = value.substr(start, colon - start);
    start = colon + 1;
  }
  if (n != part.size()) return false;
  const auto id =
      fast::util::parse_checked_count("--tenant id", part[0].c_str(), 0, 65535);
  const auto rate = fast::util::parse_checked_number(
      "--tenant rate", part[1].c_str(), 0.0, 1e9);
  const auto burst = fast::util::parse_checked_number(
      "--tenant burst", part[2].c_str(), 1.0, 1e9);
  const auto inflight = fast::util::parse_checked_count(
      "--tenant inflight", part[3].c_str(), 0, 1u << 20);
  if (!id || !rate || !burst || !inflight) return false;
  out->tenant = static_cast<std::uint16_t>(*id);
  out->rate = *rate;
  out->burst = *burst;
  out->inflight = *inflight;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fast;

  server::ServerOptions options = server::ServerOptions::from_env();
  bool tiered = false;
  std::string dir;
  std::size_t wal_sync_every = 1;
  std::size_t bloom_bits = 0;
  std::uint16_t admin_port = 0;  // 0 = admin plane disabled
  std::size_t drain_grace_ms = 0;
  if (const auto v = util::env_count("FAST_SERVER_ADMIN_PORT", 0, 65535)) {
    admin_port = static_cast<std::uint16_t>(*v);
  }
  if (const auto v =
          util::env_count("FAST_SERVER_DRAIN_GRACE_MS", 0, 600000)) {
    drain_grace_ms = *v;
  }

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg]() {
      const std::size_t eq = arg.find('=');
      return eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    }();
    const auto count_flag = [&](const char* name, unsigned long min,
                                unsigned long max) {
      return util::parse_checked_count(name, value.c_str(), min, max);
    };
    if (arg == "--tiered") {
      tiered = true;
    } else if (arg.rfind("--port=", 0) == 0) {
      const auto v = count_flag("--port", 0, 65535);
      if (!v) return usage(argv[0]);
      options.port = static_cast<std::uint16_t>(*v);
    } else if (arg.rfind("--workers=", 0) == 0) {
      const auto v = count_flag("--workers", 1, 1024);
      if (!v) return usage(argv[0]);
      options.workers = *v;
    } else if (arg.rfind("--queue=", 0) == 0) {
      const auto v = count_flag("--queue", 1, 1u << 20);
      if (!v) return usage(argv[0]);
      options.queue_depth = *v;
    } else if (arg.rfind("--query-weight=", 0) == 0) {
      const auto v = count_flag("--query-weight", 1, 1024);
      if (!v) return usage(argv[0]);
      options.query_weight = *v;
    } else if (arg.rfind("--retry-ms=", 0) == 0) {
      const auto v = count_flag("--retry-ms", 1, 60000);
      if (!v) return usage(argv[0]);
      options.retry_after_ms = static_cast<std::uint32_t>(*v);
    } else if (arg.rfind("--retry-max-ms=", 0) == 0) {
      const auto v = count_flag("--retry-max-ms", 1, 600000);
      if (!v) return usage(argv[0]);
      options.retry_max_ms = static_cast<std::uint32_t>(*v);
    } else if (arg.rfind("--tenant-rate=", 0) == 0) {
      const auto v = util::parse_checked_number("--tenant-rate",
                                                value.c_str(), 0.0, 1e9);
      if (!v) return usage(argv[0]);
      options.tenant_rate = *v;
    } else if (arg.rfind("--tenant-burst=", 0) == 0) {
      const auto v = util::parse_checked_number("--tenant-burst",
                                                value.c_str(), 1.0, 1e9);
      if (!v) return usage(argv[0]);
      options.tenant_burst = *v;
    } else if (arg.rfind("--tenant-inflight=", 0) == 0) {
      const auto v = count_flag("--tenant-inflight", 0, 1u << 20);
      if (!v) return usage(argv[0]);
      options.tenant_inflight = *v;
    } else if (arg.rfind("--tenant=", 0) == 0) {
      server::TenantQuota quota;
      if (!parse_tenant_quota(value, &quota)) return usage(argv[0]);
      options.tenant_quotas.push_back(quota);
    } else if (arg.rfind("--admin-port=", 0) == 0) {
      const auto v = count_flag("--admin-port", 0, 65535);
      if (!v) return usage(argv[0]);
      admin_port = static_cast<std::uint16_t>(*v);
    } else if (arg.rfind("--drain-grace-ms=", 0) == 0) {
      const auto v = count_flag("--drain-grace-ms", 0, 600000);
      if (!v) return usage(argv[0]);
      drain_grace_ms = *v;
    } else if (arg.rfind("--dir=", 0) == 0) {
      dir = value;
    } else if (arg.rfind("--wal-sync-every=", 0) == 0) {
      const auto v = count_flag("--wal-sync-every", 1, 1u << 20);
      if (!v) return usage(argv[0]);
      wal_sync_every = *v;
    } else if (arg.rfind("--bloom-bits=", 0) == 0) {
      const auto v = count_flag("--bloom-bits", 64, 1u << 24);
      if (!v) return usage(argv[0]);
      bloom_bits = *v;
    } else {
      return usage(argv[0]);
    }
  }

  util::configure_global_tracer_from_env();

  core::FastConfig config;
  config.tier.enabled = tiered;
  if (bloom_bits != 0) {
    config.bloom_bits = bloom_bits;
    config.lsh.dim = bloom_bits;
  }

  // Build the engine: durable (open/recover in --dir) or in-memory.
  std::unique_ptr<core::QueryEngine> engine;
  if (!dir.empty()) {
    core::DurabilityOptions opts;
    opts.dir = dir;
    opts.wal_sync_every = wal_sync_every;
    core::RecoveryStats stats;
    auto opened = core::QueryEngine::open(config, placeholder_pca(), opts,
                                          &stats);
    if (!opened.ok()) {
      std::fprintf(stderr, "fast_server: open %s failed: %s\n", dir.c_str(),
                   opened.status().message().c_str());
      return 1;
    }
    engine = std::move(opened).value();
    std::printf("fast_server: recovered %zu images from %s (replayed %zu)\n",
                engine->size(), dir.c_str(), stats.replayed_records);
  } else {
    engine = std::make_unique<core::QueryEngine>(
        core::make_backend(config, placeholder_pca()));
  }

  // Graceful-shutdown plumbing: signals write one byte to a self-pipe; the
  // main thread blocks on the read end.
  if (::pipe(g_signal_pipe) != 0) {
    std::perror("fast_server: pipe");
    return 1;
  }
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  server::Server srv(*engine, options);
  const storage::Status st = srv.start();
  if (!st.ok()) {
    std::fprintf(stderr, "fast_server: start failed: %s\n",
                 st.message().c_str());
    return 1;
  }
  // Admin plane (optional): started after the data plane so /readyz never
  // reports ready for a server that failed to bind.
  std::unique_ptr<server::HttpAdmin> admin;
  if (admin_port != 0) {
    server::HttpAdminOptions admin_options;
    admin_options.port = admin_port;
    admin = std::make_unique<server::HttpAdmin>(*engine, &srv, admin_options);
    const storage::Status admin_st = admin->start();
    if (!admin_st.ok()) {
      std::fprintf(stderr, "fast_server: admin plane start failed: %s\n",
                   admin_st.message().c_str());
      srv.stop();
      return 1;
    }
    std::printf("fast_server: admin plane on 127.0.0.1:%u\n", admin->port());
  }
  std::printf("fast_server: listening on %s:%u (workers=%zu queue=%zu "
              "tiered=%d durable=%d)\n",
              options.bind_addr.c_str(), srv.port(), options.workers,
              options.queue_depth, tiered ? 1 : 0, engine->durable() ? 1 : 0);
  std::fflush(stdout);

  unsigned char byte = 0;
  while (true) {
    const ssize_t n = ::read(g_signal_pipe[0], &byte, 1);
    if (n == 1 || (n < 0 && errno != EINTR)) break;
  }

  // Two-phase shutdown: flip readiness first (admin /readyz answers 503
  // while the data plane keeps serving), hold for the grace window so load
  // balancers stop routing, then run the normal drain-and-stop sequence.
  if (drain_grace_ms > 0) {
    srv.enter_draining();
    std::printf("fast_server: draining (grace %zu ms)\n", drain_grace_ms);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(drain_grace_ms));
  }
  std::printf("fast_server: shutting down\n");
  std::fflush(stdout);
  srv.stop();
  if (engine->durable()) {
    const storage::Status snap = engine->save_snapshot();
    if (!snap.ok()) {
      std::fprintf(stderr, "fast_server: final snapshot failed: %s\n",
                   snap.message().c_str());
    }
  }
  // The admin plane outlives stop() + snapshot on purpose: /metrics and
  // /statusz stay scrapeable through the drain, reporting state=stopped.
  if (admin != nullptr) admin->stop();
  std::printf("fast_server: bye\n");
  return 0;
}

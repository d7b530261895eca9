// fig_serving — sustained serving throughput and tail latency of the
// network front door (DESIGN.md §3g).
//
// Starts an in-process fast::server over an engine on a tiered backend,
// preloads a zipf key space, then measures:
//   1. closed-loop sweep: connections 1..N, 90/10 read/write zipf mix —
//      sustained QPS and p50/p99/p999 per concurrency level;
//   2. open-loop sweep: offered arrival rates around the closed-loop peak
//      — where latency degrades and admission control starts shedding
//      (kRetryAfter) instead of queueing without bound.
// Finishes with a Prometheus scrape through the wire (kMetrics) proving
// the serving counters export alongside the pipeline metrics, and — with
// observability on — an HTTP admin-plane check (DESIGN.md §3j): /metrics,
// /healthz and /varz answered by a stock HTTP GET while the engine is
// loaded.
//
//   fig_serving [duration_s_per_point] [preload_keys] [observability_0_1]
//   (default 2 10000 1; observability=0 disables server-timing
//   negotiation AND the admin plane, for overhead A/B comparisons)
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/query_engine.hpp"
#include "core/tiered_index.hpp"
#include "load_driver.hpp"
#include "server/client.hpp"
#include "server/http_admin.hpp"
#include "server/server.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/vecmath.hpp"

namespace fast::bench {
namespace {

vision::PcaModel placeholder_pca() {
  vision::PcaModel model;
  const std::size_t input_dim = 578, output_dim = 36;
  model.mean.assign(input_dim, 0.0f);
  model.eigenvalues.assign(output_dim, 1.0f / static_cast<float>(input_dim));
  util::Rng rng(0xfa57);
  model.components.resize(output_dim);
  for (auto& row : model.components) {
    row.resize(input_dim);
    for (auto& v : row) v = static_cast<float>(rng.gaussian());
    util::normalize_l2(row);
  }
  return model;
}

std::string fmt(double v, int digits) { return util::fmt_double(v, digits); }

void add_report_row(util::Table& table, const std::string& label,
                    const LoadReport& r) {
  table.add_row({label, std::to_string(r.ops), fmt(r.qps(), 0),
                 fmt(r.p50_ms, 3), fmt(r.p99_ms, 3), fmt(r.p999_ms, 3),
                 std::to_string(r.retries), std::to_string(r.errors)});
}

/// Open-loop row with the server-timing breakdown columns.
void add_timed_row(util::Table& table, const std::string& label,
                   const LoadReport& r) {
  table.add_row({label, std::to_string(r.ops), fmt(r.qps(), 0),
                 fmt(r.p50_ms, 3), fmt(r.p99_ms, 3), fmt(r.net_p99_ms, 3),
                 fmt(r.queue_p99_ms, 3), fmt(r.exec_p99_ms, 3),
                 std::to_string(r.retries), std::to_string(r.errors)});
}

int run(double duration_s, std::size_t preload, bool observability) {
  core::FastConfig config;
  config.tier.enabled = true;
  core::TieredIndex index(config, placeholder_pca());
  core::QueryEngine engine(index);

  server::ServerOptions options;
  options.port = 0;  // ephemeral
  // The mixed-tenant section measures the query lane's isolation from a
  // bulk tenant; favor queries strongly (bulk still progresses — see the
  // bulk_ops check below and the no-starvation proof in qos_test).
  options.query_weight = 8;
  server::Server srv(engine, options);
  const storage::Status st = srv.start();
  if (!st.ok()) {
    std::fprintf(stderr, "fig_serving: start failed: %s\n",
                 st.message().c_str());
    return 1;
  }
  std::printf("serving on 127.0.0.1:%u (workers=%zu queue=%zu "
              "observability=%d)\n",
              srv.port(), options.workers, options.queue_depth,
              observability ? 1 : 0);

  // Admin plane on an ephemeral port (observability runs only).
  std::unique_ptr<server::HttpAdmin> admin;
  if (observability) {
    admin = std::make_unique<server::HttpAdmin>(engine, &srv,
                                                server::HttpAdminOptions{});
    const storage::Status admin_st = admin->start();
    if (!admin_st.ok()) {
      std::fprintf(stderr, "fig_serving: admin start failed: %s\n",
                   admin_st.message().c_str());
      return 1;
    }
    std::printf("admin plane on 127.0.0.1:%u\n", admin->port());
  }

  LoadOptions base;
  base.port = srv.port();
  base.duration_s = duration_s;
  base.key_space = preload;
  base.bloom_bits = config.bloom_bits;
  base.want_timing = observability;

  // Preload through the wire so the sweep queries a populated index.
  {
    server::Client client;
    if (!client.connect(base.host, base.port).ok()) {
      std::fprintf(stderr, "fig_serving: connect failed\n");
      return 1;
    }
    const std::size_t kBatch = 256;
    for (std::size_t id = 1; id <= preload; id += kBatch) {
      std::vector<std::uint64_t> ids;
      std::vector<hash::SparseSignature> sigs;
      for (std::size_t j = id; j <= preload && j < id + kBatch; ++j) {
        ids.push_back(j);
        sigs.push_back(
            synth_signature(j, base.bloom_bits, base.sig_bits_set));
      }
      const auto r = client.insert_batch(ids, sigs);
      if (!r.ok() || r.value().status != server::Status::kOk) {
        std::fprintf(stderr, "fig_serving: preload failed\n");
        return 1;
      }
    }
    std::printf("preloaded %zu keys\n", preload);
  }

  // 1. Closed-loop concurrency sweep.
  util::Table closed({"conns", "ops", "qps", "p50 ms", "p99 ms", "p999 ms",
                      "retry", "err"});
  double peak_qps = 0.0;
  for (const std::size_t conns : {1, 2, 4, 8, 16}) {
    LoadOptions opt = base;
    opt.connections = conns;
    const LoadReport r = run_load(opt);
    peak_qps = std::max(peak_qps, r.qps());
    add_report_row(closed, std::to_string(conns), r);
    if (r.errors != 0) {
      std::fprintf(stderr, "fig_serving: closed-loop errors\n");
      return 1;
    }
  }
  closed.print("Serving — closed loop, zipf(0.99) 90/10 read/write");

  // 2. Open-loop arrival sweep around the closed-loop peak: tail latency
  // and shed rate as offered load crosses capacity. With observability on,
  // the negotiated server-timing trailer splits p99 into net (wire +
  // client) vs queue (admission to pickup) vs exec (engine work) — the
  // queue column is what grows as offered load crosses capacity.
  util::Table open(
      observability
          ? std::vector<std::string>{"offered", "ops", "qps", "p50 ms",
                                     "p99 ms", "net p99", "queue p99",
                                     "exec p99", "retry", "err"}
          : std::vector<std::string>{"offered", "ops", "qps", "p50 ms",
                                     "p99 ms", "p999 ms", "retry", "err"});
  for (const double frac : {0.25, 0.5, 0.75, 1.0}) {
    LoadOptions opt = base;
    opt.connections = 8;
    opt.arrival_rate = std::max(100.0, peak_qps * frac);
    const LoadReport r = run_load(opt);
    if (observability) {
      add_timed_row(open, fmt(opt.arrival_rate, 0), r);
    } else {
      add_report_row(open, fmt(opt.arrival_rate, 0), r);
    }
  }
  open.print("Serving — open loop, offered rate vs. tail latency");

  // 3. Mixed tenant matrix (QoS, DESIGN.md §3i): a query-only tenant's
  // tail latency with and without a bulk-ingest tenant hammering the
  // other lane. The weighted two-lane dispatch should keep the query p99
  // under combined load within ~2x of the query-only baseline while the
  // bulk tenant still makes progress.
  {
    LoadOptions alone = base;
    alone.tenant = 1;
    alone.connections = 8;
    alone.read_fraction = 1.0;
    const LoadReport baseline = run_load(alone);

    std::vector<TenantLoad> matrix;
    matrix.push_back({/*tenant=*/1, /*connections=*/8,
                      /*read_fraction=*/1.0, /*arrival_rate=*/0.0});
    matrix.push_back({/*tenant=*/2, /*connections=*/4,
                      /*read_fraction=*/0.0, /*arrival_rate=*/0.0});
    const std::vector<LoadReport> mixed = run_mixed_load(base, matrix);

    util::Table qos({"tenant", "ops", "qps", "p50 ms", "p99 ms", "p999 ms",
                     "retry", "err"});
    add_report_row(qos, "1 alone (queries)", baseline);
    add_report_row(qos, "1 mixed (queries)", mixed[0]);
    add_report_row(qos, "2 mixed (bulk)", mixed[1]);
    qos.print("Serving — mixed tenant matrix (query vs. bulk lanes)");
    const double ratio =
        baseline.p99_ms > 0 ? mixed[0].p99_ms / baseline.p99_ms : 0.0;
    std::printf("qos: query p99 alone=%.3fms mixed=%.3fms ratio=%.2fx "
                "bulk_ops=%zu\n",
                baseline.p99_ms, mixed[0].p99_ms, ratio, mixed[1].ops);
    if (mixed[0].errors != 0 || mixed[1].errors != 0 || mixed[1].ops == 0) {
      std::fprintf(stderr, "fig_serving: mixed tenant errors\n");
      return 1;
    }
    if (ratio > 2.0) {
      std::fprintf(stderr,
                   "fig_serving: WARNING query p99 degraded %.2fx under "
                   "bulk load (target <= 2x)\n",
                   ratio);
    }
  }

  // 4. Prometheus scrape through the wire.
  {
    server::Client client;
    if (!client.connect(base.host, base.port).ok()) {
      std::fprintf(stderr, "fig_serving: scrape connect failed\n");
      return 1;
    }
    const auto r = client.metrics();
    if (!r.ok() || r.value().status != server::Status::kOk) {
      std::fprintf(stderr, "fig_serving: metrics scrape failed\n");
      return 1;
    }
    const std::string& text = r.value().text;
    std::printf("prometheus scrape: %zu bytes, server_* series %s\n",
                text.size(),
                text.find("server_requests") != std::string::npos
                    ? "present"
                    : "MISSING");
    if (text.find("server_requests") == std::string::npos) return 1;
  }

  // 5. Admin plane over plain HTTP (observability runs): the same series
  // from a stock GET /metrics, liveness/readiness, and /varz rates.
  if (admin != nullptr) {
    int status = 0;
    std::string body;
    if (!server::http_get("127.0.0.1", admin->port(), "/metrics", &status,
                          &body) ||
        status != 200 ||
        body.find("server_requests") == std::string::npos ||
        body.find("process_rss_bytes") == std::string::npos) {
      std::fprintf(stderr, "fig_serving: admin /metrics check failed\n");
      return 1;
    }
    if (!server::http_get("127.0.0.1", admin->port(), "/healthz", &status,
                          &body) ||
        status != 200) {
      std::fprintf(stderr, "fig_serving: admin /healthz check failed\n");
      return 1;
    }
    if (!server::http_get("127.0.0.1", admin->port(), "/varz", &status,
                          &body) ||
        status != 200 || body.find("\"rates\"") == std::string::npos) {
      std::fprintf(stderr, "fig_serving: admin /varz check failed\n");
      return 1;
    }
    std::printf("admin plane: /metrics /healthz /varz ok\n");
  }

  srv.stop();
  if (admin != nullptr) admin->stop();
  std::printf("graceful stop: connections=%zu running=%d\n",
              srv.connection_count(), srv.running() ? 1 : 0);
  return 0;
}

}  // namespace
}  // namespace fast::bench

int main(int argc, char** argv) {
  double duration_s = 2.0;
  std::size_t preload = 10000;
  bool observability = true;
  if (argc > 1) duration_s = std::atof(argv[1]);
  if (argc > 2) preload = static_cast<std::size_t>(std::atoll(argv[2]));
  if (argc > 3) observability = std::atoi(argv[3]) != 0;
  if (duration_s <= 0 || duration_s > 600) duration_s = 2.0;
  std::printf("== bench fig_serving: network front door ==\n");
  return fast::bench::run(duration_s, preload, observability);
}

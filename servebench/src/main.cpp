// servebench — drives a real fast_server child process over one of two
// workloads and prints every metric of BENCHMARK.json by name.
//
//   servebench --workload search_real|wire_small --seed N --seconds S
//              --trace 0|1 --server PATH --work DIR [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics: no server timing negotiated, no
// in-process replay. --trace 1 repeats the same generated traffic with the
// server-timing trailer negotiated, replays the inputs in process through
// each layer's public calls (layers.hpp) and prints the per-layer metrics.
// Either way the last stdout line is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by one "servebench-detail {...}" line with sample counts, the
// pinned server flags and every check's outcome. See servebench/README.md.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/fast_index.hpp"
#include "hash/hashes.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "metric_names.hpp"
#include "server_process.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "wire_loop.hpp"

namespace servebench {
namespace {

namespace srv = fast::server;
using fast::hash::SparseSignature;

/// A run whose generator fell this far behind its schedule at p99 measured
/// itself, not the server: it is reported invalid. Host stalls of a few ms
/// hit generator and server alike and are charged by the scheduled-time
/// accounting, so the guard sits well above them.
constexpr double kMaxLagP99Ms = 20.0;
/// Percentile of a run's time windows its latencies are read at (and 100
/// minus it for throughput slices); see the end-to-end metrics in run().
constexpr double kQuietShare = 25;
/// Set-ups timed per untraced run; setup_s is their median. A real-corpus
/// set-up takes ~11 s (7.5 s of it PCA training), so search_real repeats
/// it twice, which keeps a full benchmark pass inside its budget.
constexpr std::size_t kSetupRepeats = 3;
constexpr std::size_t kRealSetupRepeats = 2;
constexpr std::size_t kCorpusImages = 1000;
constexpr std::size_t kDupQueries = 200;
constexpr std::size_t kSmallKeys = 10000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server;
  std::string work;
  std::string trace_out;
};

/// Workload shape: pinned server flags, offered open-loop rate, connection
/// counts and how --seconds splits between the two phases.
struct Shape {
  std::vector<std::string> flags;
  bool real_corpus = false;
  double open_rate = 0;
  std::size_t open_conns = 2;
  std::size_t closed_conns = 2;
  double open_factor = 2.0 / 3.0;    ///< open-loop seconds per --seconds
  double closed_factor = 1.0 / 3.0;  ///< closed-loop seconds per --seconds
};

Shape shape_of(const std::string& workload) {
  Shape s;
  if (workload == "search_real") {
    s.flags = {"--workers=2"};
    s.real_corpus = true;
    // A quarter of the ~200 QPS closed-loop capacity: at 75-100 QPS a host
    // slowdown pushed the two workers into queueing, which multiplied the
    // run-to-run spread of every latency.
    s.open_rate = 50;
    s.open_factor = 2.2;
    s.closed_factor = 0.5;
  } else {
    // A seventh of the ~28K ops/s closed-loop capacity, which survives the
    // host slowing down 4x under hypervisor steal. It pins a deep admission
    // window: with the default of 64, host stalls of a few hundred ms alone
    // produced kRetryAfter rejections.
    s.flags = {"--workers=2", "--queue=1024"};
    s.open_rate = 4000;
    s.open_conns = 4;
    s.closed_conns = 4;
    s.open_factor = 1.5;
    s.closed_factor = 0.3;
  }
  return s;
}

/// Preload stream: the given (id, signature) pairs in order, `batch` per
/// request (kInsert when batch == 1).
class PreloadOps : public OpSource {
 public:
  PreloadOps(std::vector<std::uint64_t> ids, std::vector<SparseSignature> sigs,
             std::size_t batch)
      : ids_(std::move(ids)), sigs_(std::move(sigs)), batch_(batch) {}
  Op next(std::uint64_t seq) override {
    Op op;
    op.kind = Op::kInsert;
    const std::size_t n = std::min(batch_, ids_.size() - pos_);
    op.id = ids_[pos_];
    op.body = batch_ == 1
                  ? srv::encode_insert(seq, ids_[pos_], sigs_[pos_])
                  : srv::encode_insert_batch(
                        seq, std::span(ids_).subspan(pos_, n),
                        std::span(sigs_).subspan(pos_, n));
    pos_ += n;
    return op;
  }
  std::size_t requests() const {
    return (ids_.size() + batch_ - 1) / batch_;
  }

 private:
  std::vector<std::uint64_t> ids_;
  std::vector<SparseSignature> sigs_;
  std::size_t batch_;
  std::size_t pos_ = 0;
};

/// (steal, total) jiffies of the whole host from /proc/stat.
std::pair<double, double> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0, steal = 0, v = 0;
  for (int field = 0; field < 10 && in >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

class Runner {
 public:
  Runner(Args args, std::int64_t start_ns)
      : args_(std::move(args)),
        shape_(shape_of(args_.workload)),
        start_ns_(start_ns) {}

  int run();

 private:
  // --- set-up ---
  struct Setup {
    std::unique_ptr<RealCorpus> corpus;
    std::unique_ptr<ServerProcess> server;
    PhaseResult preload;
  };
  bool set_up(std::size_t index, Setup* out);

  // --- timed phases ---
  void run_phases(Setup& s);
  void sink(const Op& op, const srv::Response& response);

  // --- end of workload ---
  void check_search(const Setup& s);
  void check_small();
  void layer_replays(Setup& s);

  void fail(const std::string& why) {
    correct_ = false;
    if (!failure_.empty()) failure_ += "; ";
    failure_ += why;
  }
  void add(const PhaseResult& r) {
    attempted_ += r.sent;
    failed_ += r.failed();
    retries_ += r.retry;
    errors_ += r.error;
    undecodable_ += r.undecodable;
    transport_ += r.transport;
    unanswered_ += r.unanswered;
  }
  void detail(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    details_.emplace_back(key, buf);
  }
  void detail(const std::string& key, const std::string& v) {
    details_.emplace_back(key, "\"" + v + "\"");
  }

  Args args_;
  Shape shape_;
  std::int64_t start_ns_;
  MetricSet m_;
  SpanRecorder spans_;
  std::vector<std::pair<std::string, std::string>> details_;
  bool correct_ = true;
  std::string failure_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t retries_ = 0;
  std::size_t errors_ = 0;
  std::size_t undecodable_ = 0;
  std::size_t transport_ = 0;
  std::size_t unanswered_ = 0;
  std::unique_ptr<OpSource> ops_;
  PhaseResult open_, closed_;
  /// Server CPU seconds (user + system) used during the open-loop phase.
  double open_cpu_s_ = 0;
  /// Preload insert latencies of every set-up, pooled.
  std::vector<double> preload_ms_, preload_t_;

  // Response records the checks read.
  std::unordered_map<std::uint64_t, std::vector<fast::core::ScoredId>>
      first_hits_;  ///< search_real: query index -> first answer
  std::set<std::uint64_t> acked_erases_;
  struct SmallAnswer {
    std::uint64_t key;
    std::vector<fast::core::ScoredId> hits;
  };
  std::vector<SmallAnswer> small_answers_;
  std::size_t small_seen_ = 0;
  /// wire_small: share of each distinct key's first answer that is the key.
  std::unordered_map<std::uint64_t, double> small_precision_;
};

bool Runner::set_up(std::size_t index, Setup* s) {
  SpanRecorder* spans = args_.trace ? &spans_ : nullptr;
  ScopedSpan setup_span(spans, "setup");
  if (shape_.real_corpus) {
    s->corpus = std::make_unique<RealCorpus>(
        build_real_corpus(args_.seed, kCorpusImages, kDupQueries, 4, spans));
  }
  s->server = std::make_unique<ServerProcess>();
  if (s->server->start(args_.server, shape_.flags,
                       args_.work + "/server-" + std::to_string(index) +
                           ".log") < 0) {
    fail("fast_server did not start");
    return false;
  }
  std::vector<std::uint64_t> ids;
  std::vector<SparseSignature> sigs;
  std::size_t batch = 1;
  if (args_.workload == "search_real") {
    ids = s->corpus->ids;
    sigs = s->corpus->sigs;
  } else {
    for (std::uint64_t key = 1; key <= kSmallKeys; ++key) {
      ids.push_back(key);
      sigs.push_back(SmallOps::signature_of(key));
    }
    batch = 500;
  }
  PreloadOps preload(std::move(ids), std::move(sigs), batch);
  PhaseOptions opts;
  opts.connections = 1;
  opts.duration_s = 600;
  opts.max_ops = preload.requests();
  s->preload = run_phase(s->server->port(), opts, preload, nullptr);
  add(s->preload);
  preload_ms_.insert(preload_ms_.end(), s->preload.write_ms.begin(),
                     s->preload.write_ms.end());
  preload_t_.insert(preload_t_.end(), s->preload.write_t.begin(),
                    s->preload.write_t.end());
  if (s->preload.ok != opts.max_ops) {
    fail("preload was not fully acknowledged");
    return false;
  }
  return true;
}

void Runner::sink(const Op& op, const srv::Response& response) {
  if (args_.workload == "search_real") {
    if (!response.results.empty() && first_hits_.count(op.id) == 0) {
      first_hits_[op.id] = response.results[0];
    }
    return;
  }
  if (op.kind == Op::kErase) {
    acked_erases_.insert(op.id);
    return;
  }
  if (op.kind != Op::kQuery) return;
  const std::vector<fast::core::ScoredId> hits =
      response.results.empty() ? std::vector<fast::core::ScoredId>{}
                               : response.results[0];
  // A synthetic key's only relevant id is itself.
  if (!hits.empty() && small_precision_.count(op.id) == 0) {
    const auto own = std::count_if(
        hits.begin(), hits.end(),
        [&](const fast::core::ScoredId& h) { return h.id == op.id; });
    small_precision_[op.id] =
        static_cast<double>(own) / static_cast<double>(hits.size());
  }
  // Reservoir sample of query answers for the result check.
  ++small_seen_;
  if (small_answers_.size() < 400) {
    small_answers_.push_back({op.id, hits});
  } else {
    const std::uint64_t slot =
        fast::hash::mix64(args_.seed ^ small_seen_) % small_seen_;
    if (slot < small_answers_.size()) small_answers_[slot] = {op.id, hits};
  }
}

void Runner::run_phases(Setup& s) {
  if (args_.workload == "search_real") {
    ops_ = std::make_unique<SearchOps>(*s.corpus);
  } else {
    ops_ = std::make_unique<SmallOps>(args_.seed, kSmallKeys);
  }
  const ResponseSink sink_fn = [this](const Op& op,
                                      const srv::Response& response) {
    sink(op, response);
  };
  PhaseOptions open;
  open.connections = shape_.open_conns;
  open.rate = shape_.open_rate;
  open.duration_s = args_.seconds * shape_.open_factor;
  open.server_timing = args_.trace;
  open.schedule_seed = fast::hash::mix64(args_.seed ^ 0xa77a1ULL);
  {
    ScopedSpan span(args_.trace ? &spans_ : nullptr, "phase.open_loop");
    const double cpu0 = s.server->cpu_s();
    open_ = run_phase(s.server->port(), open, *ops_, sink_fn);
    open_cpu_s_ = s.server->cpu_s() - cpu0;
  }
  add(open_);
  PhaseOptions closed;
  closed.connections = shape_.closed_conns;
  closed.duration_s = args_.seconds * shape_.closed_factor;
  closed.server_timing = args_.trace;
  {
    ScopedSpan span(args_.trace ? &spans_ : nullptr, "phase.closed_loop");
    closed_ = run_phase(s.server->port(), closed, *ops_, sink_fn);
  }
  add(closed_);
}

void Runner::check_search(const Setup& s) {
  // Ground truth: an in-process FastIndex over the same corpus, same order.
  fast::core::FastIndex index(fast::core::FastConfig{}, placeholder_pca());
  for (std::size_t i = 0; i < s.corpus->ids.size(); ++i) {
    index.insert_signature(s.corpus->ids[i], s.corpus->sigs[i]);
  }
  std::vector<std::uint64_t> answered;
  for (const auto& [q, hits] : first_hits_) answered.push_back(q);
  std::sort(answered.begin(), answered.end());
  fast::util::Rng rng(fast::hash::mix64(args_.seed ^ 0xc4ec4ULL));
  std::size_t compared = 0, mismatched = 0;
  for (std::size_t i = 0; i < answered.size(); ++i) {
    if (!rng.bernoulli(0.25)) continue;
    const auto expect =
        index.query_signature(s.corpus->queries[answered[i]], kTopK).hits;
    const auto& got = first_hits_.at(answered[i]);
    ++compared;
    bool same = expect.size() == got.size();
    for (std::size_t h = 0; same && h < got.size(); ++h) {
      same = expect[h].id == got[h].id && expect[h].score == got[h].score;
    }
    if (!same) ++mismatched;
  }
  detail("check.search_compared", static_cast<double>(compared));
  if (compared == 0 || mismatched != 0) {
    fail("wire answers differ from the in-process FastIndex (" +
         std::to_string(mismatched) + "/" + std::to_string(compared) + ")");
  }
  std::vector<double> precision;
  for (const auto& [q, hits] : first_hits_) {
    if (hits.empty()) {
      precision.push_back(0.0);
      continue;
    }
    const auto& rel = s.corpus->relevant[q];
    std::size_t in_cluster = 0;
    for (const auto& h : hits) {
      in_cluster += std::count(rel.begin(), rel.end(), h.id) > 0 ? 1 : 0;
    }
    precision.push_back(static_cast<double>(in_cluster) /
                        static_cast<double>(hits.size()));
  }
  m_.set("precision_at_10", mean(precision));
  detail("samples.precision_queries", static_cast<double>(precision.size()));
}

void Runner::check_small() {
  std::size_t bad = 0;
  for (const SmallAnswer& a : small_answers_) {
    // A key answers itself first at 1.0 unless the run erased it.
    const bool self_first = !a.hits.empty() && a.hits[0].id == a.key &&
                            a.hits[0].score == 1.0;
    if (!self_first && acked_erases_.count(a.key) == 0) ++bad;
  }
  detail("check.small_answers", static_cast<double>(small_answers_.size()));
  if (small_answers_.empty() || bad != 0) {
    fail("wire_small answers wrong for " + std::to_string(bad) + " keys");
  }
  std::vector<double> precision;
  for (const auto& [key, share] : small_precision_) precision.push_back(share);
  m_.set("precision_at_10", mean(precision));
  detail("samples.precision_queries", static_cast<double>(precision.size()));
}

void Runner::layer_replays(Setup& s) {
  LayerInputs in;
  in.scratch_dir = args_.work + "/replay";
  if (args_.workload == "search_real") {
    in.live_ids = s.corpus->ids;
    in.live_sigs = s.corpus->sigs;
    in.queries = s.corpus->queries;
    for (std::size_t i = 0; i < s.corpus->ids.size(); ++i) {
      in.writes.push_back({true, s.corpus->ids[i], s.corpus->sigs[i]});
    }
    for (std::size_t i = 0; i < kDupQueries; ++i) {
      in.writes.push_back({false, s.corpus->ids[i], {}});
    }
  } else {
    for (std::uint64_t key = 1; key <= kSmallKeys; ++key) {
      in.live_ids.push_back(key);
      in.live_sigs.push_back(SmallOps::signature_of(key));
    }
    SmallOps stream(args_.seed, kSmallKeys);
    std::uint64_t seq = 1;
    while (in.queries.size() < 4000 || in.writes.size() < 400) {
      const Op op = stream.next(seq++);
      if (op.kind == Op::kQuery) {
        in.queries.push_back(SmallOps::signature_of(op.id));
      } else {
        in.writes.push_back({op.kind == Op::kInsert, op.id,
                             op.kind == Op::kInsert
                                 ? SmallOps::signature_of(op.id)
                                 : SparseSignature{}});
      }
    }
  }
  const LayerCheck check = replay_layers(in, spans_, &m_);
  // The in-process engine against the server's own query exec time.
  const double exec_us = percentile(open_.exec_ms, 50) * 1e3;
  detail("check.engine_over_exec",
         exec_us > 0 ? m_.get("engine.query_us_p50") / exec_us : 0.0);
  detail("check.replay_queries", static_cast<double>(check.queries));
  detail("check.candidate_mismatches",
         static_cast<double>(check.candidate_mismatches));
  detail("check.hit_mismatches", static_cast<double>(check.hit_mismatches));
  if (!check.error.empty()) fail("layer replay: " + check.error);
  // The SA + CHS replay must rebuild the engine's exact candidate set and
  // ranking.
  if (check.candidate_mismatches != 0 || check.hit_mismatches != 0) {
    fail("replayed candidates or hits differ from QueryResult");
  }
  std::array<std::vector<std::vector<std::uint8_t>>, 3> requests, responses;
  for (const PhaseResult* phase : {&s.preload, &open_, &closed_}) {
    for (std::size_t k = 0; k < 3; ++k) {
      requests[k].insert(requests[k].end(), phase->request_bodies[k].begin(),
                         phase->request_bodies[k].end());
      responses[k].insert(responses[k].end(),
                          phase->response_bodies[k].begin(),
                          phase->response_bodies[k].end());
    }
  }
  replay_wire(requests, responses, spans_, &m_);
}

int Runner::run() {
  std::filesystem::remove_all(args_.work);
  std::filesystem::create_directories(args_.work);
  detail("workload", args_.workload);
  detail("seed", static_cast<double>(args_.seed));
  detail("trace", args_.trace ? 1.0 : 0.0);
  std::string flags;
  for (const std::string& f : shape_.flags) flags += f + " ";
  detail("server_flags", flags);
  detail("open_rate", shape_.open_rate);
  detail("open_s", args_.seconds * shape_.open_factor);
  detail("closed_s", args_.seconds * shape_.closed_factor);
  detail("open_conns", static_cast<double>(shape_.open_conns));
  detail("closed_conns", static_cast<double>(shape_.closed_conns));

  const auto [steal0, total0] = cpu_jiffies();
  Setup s;
  std::vector<double> setups;
  if (set_up(0, &s)) {
    setups.push_back(static_cast<double>(now_ns() - start_ns_) * 1e-9);
    // Peak RSS once the live set is loaded. The growth during the timed
    // phases is malloc-arena churn across the server's threads: it moved
    // wire_small's end-of-run peak between 96 and 128 MB from run to run
    // while the post-preload peak held within 0.3%.
    m_.set("rss_mb", s.server->peak_rss_mb());
    run_phases(s);
    detail("rss_mb.end", s.server->peak_rss_mb());
    if (s.server->stop() != 0) fail("fast_server did not drain cleanly");

    if (args_.workload == "search_real") check_search(s);
    if (args_.workload == "wire_small") check_small();
    if (args_.trace) {
      ScopedSpan span(&spans_, "replay");
      layer_replays(s);
    }
  }
  if (correct_ && !args_.trace) {
    // Repeat the whole set-up; setup_s is the median over repeats.
    const std::size_t repeats =
        shape_.real_corpus ? kRealSetupRepeats : kSetupRepeats;
    for (std::size_t r = 1; r < repeats; ++r) {
      Setup again;
      const std::int64_t t0 = now_ns();
      if (!set_up(r, &again)) break;
      setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      again.server->stop();
    }
  }

  // Share of the host's CPU time the hypervisor took away during the run:
  // figures from a run with a high share are slow for reasons outside it.
  const auto [steal1, total1] = cpu_jiffies();
  detail("host.steal_share",
         total1 > total0 ? (steal1 - steal0) / (total1 - total0) : 0.0);

  // End-to-end metrics.
  m_.set("setup_s", median(setups));
  const double query_ms_samples =
      static_cast<double>(open_.query_ms.size());
  // Latencies are taken per time window, each window holding enough
  // samples for 10 beyond the percentile (>= 100 for p50, >= 1000 for p99;
  // one window when the phase is shorter), throughput per slice of the
  // closed phase (16 slices). Host noise on a shared machine (hypervisor
  // steal, busy neighbours) comes in bursts of seconds and slows every
  // layer alike, so a run reports its quieter quarter: the lower quartile
  // of the window latencies and the upper quartile of the slice rates. A
  // figure then moves only when most of the run moved.
  const std::size_t need = samples_for_tail(99, 10);
  const auto windowed = [](const std::vector<double>& ms,
                           const std::vector<double>& t, double pct) {
    return windowed_percentile(
        ms, t, pct, std::max<std::size_t>(100, samples_for_tail(pct, 10)), 64,
        kQuietShare);
  };
  m_.set("query_p50_ms", windowed(open_.query_ms, open_.query_t, 50));
  const double query_p99 = windowed(open_.query_ms, open_.query_t, 99);
  // search_real's timed phases are read-only: its write latencies are the
  // preload inserts of every set-up (one connection, one request
  // outstanding).
  const bool preload_writes = open_.write_ms.empty();
  const std::vector<double>& writes =
      preload_writes ? preload_ms_ : open_.write_ms;
  const std::vector<double>& write_t =
      preload_writes ? preload_t_ : open_.write_t;
  const double write_p50 = windowed(writes, write_t, 50);
  const double write_p99 = windowed(writes, write_t, 99);
  const double closed_qps = windowed_rate(closed_.ok_t, closed_.duration_s,
                                          16, 100 - kQuietShare);
  // Server CPU per answered open-loop op: what the workload costs the
  // server. Time the hypervisor steals is not charged to the process, so
  // this holds still on a noisy host where the p99s and the closed-loop
  // rate swing by 2-10x, and where search_real's preload write p50 spread
  // 0.29 over ten quiet runs. Those stay in the detail line here and are
  // per-layer metrics of the traced run.
  m_.set("cpu_us_per_op",
         open_.ok == 0 ? 0.0
                       : open_cpu_s_ * 1e6 / static_cast<double>(open_.ok));
  detail("server_cpu_s.open_loop", open_cpu_s_);
  detail("query_p99_ms", query_p99);
  detail("write_p50_ms", write_p50);
  detail("write_p99_ms", write_p99);
  detail("closed_qps", closed_qps);
  const double failed_share =
      attempted_ == 0 ? 1.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  m_.set("ok_share", 1.0 - failed_share);
  detail("failed.retry_after", static_cast<double>(retries_));
  detail("failed.error", static_cast<double>(errors_));
  detail("failed.transport", static_cast<double>(transport_));
  detail("failed.unanswered", static_cast<double>(unanswered_));
  detail("samples.setup", static_cast<double>(setups.size()));
  detail("samples.query_open", query_ms_samples);
  detail("samples.write", static_cast<double>(writes.size()));
  detail("write_source", preload_writes ? "preload" : "open_loop");
  detail("samples.closed_ok", static_cast<double>(closed_.ok_t.size()));

  // Per-layer metrics measured from outside on the traced run.
  const double lag_p99 = percentile(open_.lag_ms, 99);
  m_.set("loadgen.lag_ms_p99", lag_p99);
  m_.set("failed_share", failed_share);
  m_.set("trace.query_p50_ms", m_.get("query_p50_ms"));
  m_.set("trace.query_p99_ms", query_p99);
  m_.set("trace.write_p50_ms", write_p50);
  m_.set("trace.write_p99_ms", write_p99);
  m_.set("trace.closed_qps", closed_qps);
  m_.set("server.queue_ms_p50", percentile(open_.queue_ms, 50));
  m_.set("server.queue_ms_p99", percentile(open_.queue_ms, 99));
  m_.set("server.exec_ms_p50", percentile(open_.exec_ms, 50));
  m_.set("server.exec_ms_p99", percentile(open_.exec_ms, 99));
  m_.set("server.net_ms_p50", percentile(open_.net_ms, 50));
  m_.set("server.net_ms_p99", percentile(open_.net_ms, 99));
  m_.set("server.retry_share",
         attempted_ == 0 ? 0.0
                         : static_cast<double>(retries_) /
                               static_cast<double>(attempted_));
  const double sent = static_cast<double>(open_.sent + closed_.sent);
  m_.set("wire.request_bytes",
         sent > 0 ? static_cast<double>(open_.request_bytes +
                                        closed_.request_bytes) / sent
                  : 0.0);
  m_.set("wire.response_bytes",
         sent > 0 ? static_cast<double>(open_.response_bytes +
                                        closed_.response_bytes) / sent
                  : 0.0);
  if (s.corpus) {
    m_.set("fe_sm.summarize_ms_p50", percentile(s.corpus->summarize_ms, 50));
    m_.set("fe_sm.pca_train_s", s.corpus->pca_train_s);
  } else {
    m_.set("fe_sm.summarize_ms_p50", 0.0);
    m_.set("fe_sm.pca_train_s", 0.0);
  }
  detail("samples.lag", static_cast<double>(open_.lag_ms.size()));
  detail("loadgen.lag_ms_p99", lag_p99);
  detail("samples.server_timing", static_cast<double>(open_.exec_ms.size()));
  if (correct_ && lag_p99 > kMaxLagP99Ms) {
    fail("invalid run: generator lag p99 " + std::to_string(lag_p99) +
         " ms exceeds " + std::to_string(kMaxLagP99Ms) + " ms");
  }
  if (undecodable_ != 0) {
    fail(std::to_string(undecodable_) + " responses did not decode");
  }
  // Every p99 must have at least ten samples beyond it.
  if (correct_ && (open_.query_ms.size() < need || writes.size() < need)) {
    fail("a timed phase gathered too few samples for its p99");
  }

  if (args_.trace && !args_.trace_out.empty()) {
    spans_.write_chrome_trace(args_.trace_out);
  }
  if (!failure_.empty()) detail("failure", failure_);

  std::string metrics_json, error;
  if (!m_.to_json(!args_.trace, &metrics_json, &error)) {
    fail(error);
    std::fprintf(stderr, "servebench: %s\n", error.c_str());
    std::filesystem::remove_all(args_.work);
    return 1;
  }
  std::string detail_json = "{";
  for (std::size_t i = 0; i < details_.size(); ++i) {
    detail_json += (i ? ", \"" : "\"") + details_[i].first +
                   "\": " + details_[i].second;
  }
  detail_json += "}";
  std::printf("servebench-detail %s\n", detail_json.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct_ ? "true" : "false", attempted_, failed_,
              metrics_json.c_str());
  std::fflush(stdout);
  std::filesystem::remove_all(args_.work);
  return 0;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a->workload = value;
    } else if (key == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      a->trace = value == "1";
    } else if (key == "--server") {
      a->server = value;
    } else if (key == "--work") {
      a->work = value;
    } else if (key == "--trace-out") {
      a->trace_out = value;
    } else {
      return false;
    }
  }
  return (a->workload == "search_real" || a->workload == "wire_small") &&
         a->seconds > 0 && !a->server.empty() && !a->work.empty();
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  const std::int64_t start = servebench::now_ns();
  servebench::Args args;
  if ((argc - 1) % 2 != 0 || !servebench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload search_real|wire_small "
                 "--seed N --seconds S --trace 0|1 --server PATH --work DIR "
                 "[--trace-out FILE]\n");
    return 2;
  }
  return servebench::Runner(std::move(args), start).run();
}

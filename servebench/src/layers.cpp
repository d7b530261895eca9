#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <unordered_set>

#include "core/pipeline/factory.hpp"
#include "core/query_engine.hpp"
#include "inputs.hpp"
#include "server/protocol.hpp"
#include "stats.hpp"
#include "storage/wal.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/vecmath.hpp"

namespace servebench {

namespace {

using fast::hash::SparseSignature;
namespace core = fast::core;
namespace srv = fast::server;

/// Flat group-store mirror of the index state, driven through the SA and
/// CHS stage interfaces exactly the way FastIndex drives them.
class Mirror {
 public:
  explicit Mirror(const core::FastConfig& config)
      : aggregator_(core::pipeline::make_aggregator(config)),
        store_(core::pipeline::make_group_store(config,
                                                aggregator_->table_count())) {}

  void insert(std::uint64_t id, const SparseSignature& sig,
              SpanRecorder& spans) {
    std::vector<std::uint64_t> keys;
    {
      ScopedSpan span(&spans, "sa.insert_keys");
      keys = aggregator_->keys(sig, nullptr);
    }
    for (std::size_t t = 0; t < keys.size(); ++t) {
      if (const auto group = store_->find(t, keys[t])) {
        groups_[*group].push_back(id);
      } else {
        groups_.push_back({id});
        ScopedSpan span(&spans, "chs.place");
        rehashes_ += store_->place(t, keys[t], groups_.size() - 1);
      }
    }
    sigs_[id] = sig;
  }

  void erase(std::uint64_t id) {
    const auto it = sigs_.find(id);
    if (it == sigs_.end()) return;
    const std::vector<std::uint64_t> keys = aggregator_->keys(it->second, nullptr);
    for (std::size_t t = 0; t < keys.size(); ++t) {
      if (const auto group = store_->find(t, keys[t])) {
        auto& members = groups_[*group];
        members.erase(std::remove(members.begin(), members.end(), id),
                      members.end());
        if (members.empty()) store_->erase_key(t, keys[t]);
      }
    }
    sigs_.erase(it);
  }

  struct QueryReplay {
    std::size_t keys = 0;
    std::size_t lookups = 0;
    std::size_t slot_reads = 0;
    std::size_t bytes = 0;
    double find_us = 0;
    double jaccard_us = 0;
    std::size_t candidates = 0;
    std::vector<core::ScoredId> hits;
  };

  QueryReplay query(const SparseSignature& sig, SpanRecorder& spans) const {
    QueryReplay out;
    ScopedSpan query_span(&spans, "replay.query");
    std::vector<std::uint64_t> keys;
    std::vector<std::vector<std::uint64_t>> probes;
    {
      ScopedSpan span(&spans, "sa.query_keys");
      keys = aggregator_->keys(sig, &probes);
    }
    out.keys = keys.size();
    for (const auto& p : probes) out.keys += p.size();

    std::vector<std::uint64_t> found;
    fast::hash::ProbeProfile profile;
    {
      ScopedSpan span(&spans, "chs.find_batch");
      const std::int64_t start = now_ns();
      for (std::size_t t = 0; t < keys.size(); ++t) {
        const auto probe = [&](std::uint64_t key) {
          std::size_t reads = 0;
          if (const auto g = store_->find(t, key, &reads, &profile)) {
            found.push_back(*g);
          }
          ++out.lookups;
          out.slot_reads += reads;
        };
        probe(keys[t]);
        for (const std::uint64_t pk : probes[t]) probe(pk);
      }
      out.find_us = static_cast<double>(now_ns() - start) * 1e-3;
    }
    out.bytes = profile.bytes_touched;

    // Candidate dedupe: the engine's own bookkeeping, left unattributed.
    std::unordered_set<std::uint64_t> candidates;
    for (const std::uint64_t g : found) {
      candidates.insert(groups_[g].begin(), groups_[g].end());
    }
    out.candidates = candidates.size();

    ScopedSpan rank_span(&spans, "rank");
    out.hits.reserve(candidates.size());
    {
      ScopedSpan span(&spans, "rank.jaccard_all");
      const std::int64_t start = now_ns();
      for (const std::uint64_t id : candidates) {
        out.hits.push_back(
            {id, SparseSignature::jaccard(sig, sigs_.at(id))});
      }
      out.jaccard_us = static_cast<double>(now_ns() - start) * 1e-3;
    }
    const std::size_t keep = std::min<std::size_t>(kTopK, out.hits.size());
    std::partial_sort(out.hits.begin(),
                      out.hits.begin() + static_cast<std::ptrdiff_t>(keep),
                      out.hits.end(),
                      [](const core::ScoredId& a, const core::ScoredId& b) {
                        if (a.score != b.score) return a.score > b.score;
                        return a.id < b.id;
                      });
    out.hits.resize(keep);
    return out;
  }

  std::size_t rehashes() const noexcept { return rehashes_; }

 private:
  std::unique_ptr<core::pipeline::SemanticAggregator> aggregator_;
  std::unique_ptr<core::pipeline::GroupStore> store_;
  std::vector<std::vector<std::uint64_t>> groups_;
  std::unordered_map<std::uint64_t, SparseSignature> sigs_;
  std::size_t rehashes_ = 0;
};

bool same_hits(const std::vector<core::ScoredId>& a,
               const std::vector<core::ScoredId>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].score != b[i].score) return false;
  }
  return true;
}

double p(const std::vector<double>& v, double pct) { return percentile(v, pct); }

double snapshot_mb(const std::string& dir) {
  double newest_bytes = 0;
  std::string newest;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snapshot-", 0) == 0 && name > newest) {
      newest = name;
      newest_bytes = static_cast<double>(entry.file_size(ec));
    }
  }
  return newest_bytes / (1024.0 * 1024.0);
}

/// Seal threshold of the tiered write replay. At the default of 4096
/// memtable entries per lane, a write stream of a few thousand mentions
/// never seals; at 16 every lane seals many times and reaches the
/// compaction trigger, so seals, merges, tombstones and segment skips all
/// do work. Only tier.enabled enters the config fingerprint, so the
/// recovery replay reopens the same directory with this config.
constexpr std::size_t kReplaySealThreshold = 16;

core::FastConfig tiered_config() {
  core::FastConfig config;
  config.tier.enabled = true;
  config.tier.seal_threshold = kReplaySealThreshold;
  return config;
}

/// Query-side replay: engine vs SA + CHS + rank over the same live set, on
/// the flat backend fast_server runs.
void replay_queries(const LayerInputs& in, SpanRecorder& spans,
                    MetricSet* m, LayerCheck* check) {
  const core::FastConfig config;
  core::FastIndex index(config, placeholder_pca());
  core::QueryEngine engine(index, 1);
  Mirror mirror(config);
  for (std::size_t i = 0; i < in.live_ids.size(); ++i) {
    engine.insert_signature(in.live_ids[i], in.live_sigs[i]);
    mirror.insert(in.live_ids[i], in.live_sigs[i], spans);
  }

  std::vector<double> engine_us, keys_count, lookups, find_ns, reads_per,
      bytes_per, candidates, jaccard_us, bits;
  std::size_t hits_total = 0, candidates_total = 0;
  // Engine pass first, replay pass second: interleaving them would keep two
  // copies of the live set hot and slow both down.
  std::vector<core::QueryResult> results;
  results.reserve(in.queries.size());
  for (const SparseSignature& q : in.queries) {
    ScopedSpan span(&spans, "engine.query");
    results.push_back(engine.query_signature(q, kTopK));
  }
  for (std::size_t i = 0; i < in.queries.size(); ++i) {
    const SparseSignature& q = in.queries[i];
    const core::QueryResult& result = results[i];
    const Mirror::QueryReplay r = mirror.query(q, spans);
    ++check->queries;
    if (r.candidates != result.candidates) ++check->candidate_mismatches;
    if (!same_hits(r.hits, result.hits)) ++check->hit_mismatches;
    keys_count.push_back(static_cast<double>(r.keys));
    lookups.push_back(static_cast<double>(r.lookups));
    if (r.lookups > 0) {
      find_ns.push_back(r.find_us * 1e3 / static_cast<double>(r.lookups));
      reads_per.push_back(static_cast<double>(r.slot_reads) /
                          static_cast<double>(r.lookups));
      bytes_per.push_back(static_cast<double>(r.bytes) /
                          static_cast<double>(r.lookups));
    }
    candidates.push_back(static_cast<double>(r.candidates));
    if (r.candidates > 0) {
      jaccard_us.push_back(r.jaccard_us / static_cast<double>(r.candidates));
    }
    bits.push_back(static_cast<double>(q.popcount()));
    hits_total += r.hits.size();
    candidates_total += r.candidates;
  }
  // Apply the write stream to the mirror too, so CHS placement is also
  // measured on the workload's own ingest.
  for (const WriteRecord& w : in.writes) {
    if (w.insert) {
      mirror.insert(w.id, w.sig, spans);
    } else {
      mirror.erase(w.id);
    }
  }

  const std::vector<double> engine_q = spans.durations_us("engine.query");
  const std::vector<double> sa_q = spans.durations_us("sa.query_keys");
  const std::vector<double> find_q = spans.durations_us("chs.find_batch");
  const std::vector<double> rank_q = spans.durations_us("rank");
  m->set("engine.query_us_p50", p(engine_q, 50));
  m->set("engine.query_us_p99", p(engine_q, 99));
  m->set("sa.query_keys_us_p50", p(sa_q, 50));
  m->set("sa.query_keys_us_p99", p(sa_q, 99));
  m->set("sa.keys_per_query", mean(keys_count));
  m->set("sa.bits_set_p50", p(bits, 50));
  m->set("chs.find_ns_p50", p(find_ns, 50));
  m->set("chs.lookups_per_query", mean(lookups));
  m->set("chs.slot_reads_per_lookup", mean(reads_per));
  m->set("chs.bytes_per_lookup", mean(bytes_per));
  m->set("chs.place_us_p50", p(spans.durations_us("chs.place"), 50));
  m->set("chs.rehashes", static_cast<double>(mirror.rehashes()));
  m->set("rank.candidates_p50", p(candidates, 50));
  m->set("rank.candidates_p99", p(candidates, 99));
  m->set("rank.jaccard_us_p50", p(jaccard_us, 50));
  m->set("rank.us_per_query_p50", p(rank_q, 50));
  m->set("rank.useful_ratio",
         candidates_total == 0 ? 0.0
                               : static_cast<double>(hits_total) /
                                     static_cast<double>(candidates_total));
  m->set("engine.other_us_p50", p(engine_q, 50) - p(sa_q, 50) -
                                    p(find_q, 50) - p(rank_q, 50));
  m->set("sa.insert_keys_us_p50", p(spans.durations_us("sa.insert_keys"), 50));
}

/// Durable tiered engine fed the write stream, one fsync per write, then
/// queried; the tier.* metrics come from this engine's own registry.
std::string replay_engine_writes(const LayerInputs& in, SpanRecorder& spans,
                                 MetricSet* m) {
  core::DurabilityOptions opts;
  opts.dir = in.scratch_dir + "/engine";
  opts.wal_sync_every = 1;
  auto opened = core::QueryEngine::open(tiered_config(), placeholder_pca(),
                                        opts, nullptr, 1);
  if (!opened.ok()) return "engine open: " + opened.status().message();
  auto engine = std::move(opened).value();
  for (const WriteRecord& w : in.writes) {
    if (w.insert) {
      ScopedSpan span(&spans, "engine.insert");
      engine->insert_signature(w.id, w.sig);
    } else {
      ScopedSpan span(&spans, "engine.erase");
      engine->erase(w.id);
    }
  }
  const std::vector<double> ins = spans.durations_us("engine.insert");
  m->set("engine.insert_us_p50", p(ins, 50));
  m->set("engine.insert_us_p99", p(ins, 99));
  m->set("engine.erase_us_p50", p(spans.durations_us("engine.erase"), 50));

  const core::TieredIndex& tier = engine->tiered();
  tier.wait_idle();
  for (const SparseSignature& q : in.queries) {
    ScopedSpan span(&spans, "tier.query");
    (void)engine->query_signature(q, kTopK);
  }
  const fast::util::MetricsSnapshot snap = engine->metrics().snapshot();
  const auto counter = [&](const char* name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto merge = snap.histograms.find("compaction.merge_s");
  const double seals = counter("tier.seals");
  m->set("tier.seals", seals);
  m->set("tier.compaction_runs", counter("compaction.runs"));
  m->set("tier.compaction_merge_ms_p99",
         merge == snap.histograms.end() ? 0.0
                                        : merge->second.percentile(99) * 1e3);
  m->set("tier.segments_end", static_cast<double>(tier.segment_count()));
  m->set("tier.tombstones_end", static_cast<double>(tier.tombstone_count()));
  m->set("tier.segment_skips_per_query",
         in.queries.empty() ? 0.0
                            : counter("tier.segment_skips") /
                                  static_cast<double>(in.queries.size()));
  const auto synced = engine->sync_wal();
  if (!synced.ok()) return "engine sync: " + synced.message();
  if (seals < 3.0 * static_cast<double>(tier.lane_count())) {
    return "the tiered write replay sealed fewer than 3 times per lane";
  }
  return "";
}

std::string replay_wal(const LayerInputs& in, SpanRecorder& spans,
                       MetricSet* m) {
  fast::storage::Env& env = fast::storage::Env::posix();
  const std::string dir = in.scratch_dir + "/wal";
  if (!env.make_dirs(dir).ok()) return "wal dir";
  auto created = fast::storage::WalWriter::create(env, dir, 1);
  if (!created.ok()) return "wal create: " + created.status().message();
  auto wal = std::move(created).value();
  for (const WriteRecord& w : in.writes) {
    const std::vector<std::uint8_t> payload =
        w.insert ? w.sig.encode() : std::vector<std::uint8_t>{};
    fast::storage::Status st;
    {
      ScopedSpan span(&spans, "wal.append");
      st = wal->append(w.insert ? fast::storage::kWalRecordInsert
                                : fast::storage::kWalRecordErase,
                       w.id, payload);
    }
    if (!st.ok()) return "wal append: " + st.message();
    {
      ScopedSpan span(&spans, "wal.sync");
      st = wal->sync();
    }
    if (!st.ok()) return "wal sync: " + st.message();
  }
  const std::vector<double> sync_us = spans.durations_us("wal.sync");
  m->set("wal.append_us_p50", p(spans.durations_us("wal.append"), 50));
  m->set("wal.sync_us_p50", p(sync_us, 50));
  m->set("wal.sync_us_p99", p(sync_us, 99));
  m->set("wal.bytes_per_write",
         in.writes.empty() ? 0.0
                           : static_cast<double>(wal->bytes_appended()) /
                                 static_cast<double>(in.writes.size()));
  const auto closed = wal->close();
  return closed.ok() ? "" : "wal close: " + closed.message();
}

std::string replay_recovery(const LayerInputs& in, SpanRecorder& spans,
                            MetricSet* m) {
  core::DurabilityOptions opts;
  opts.dir = in.scratch_dir + "/engine";
  std::unique_ptr<core::QueryEngine> engine;
  {
    ScopedSpan span(&spans, "recovery.open");
    auto opened = core::QueryEngine::open(tiered_config(), placeholder_pca(),
                                          opts, nullptr, 1);
    if (!opened.ok()) return "recovery open: " + opened.status().message();
    engine = std::move(opened).value();
  }
  fast::storage::Status st;
  {
    ScopedSpan span(&spans, "snapshot.write");
    st = engine->save_snapshot();
  }
  if (!st.ok()) return "snapshot: " + st.message();
  m->set("recovery.open_ms", p(spans.durations_us("recovery.open"), 50) * 1e-3);
  m->set("snapshot.write_ms",
         p(spans.durations_us("snapshot.write"), 50) * 1e-3);
  m->set("snapshot.mb", snapshot_mb(opts.dir));
  return "";
}

}  // namespace

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

LayerCheck replay_layers(const LayerInputs& inputs, SpanRecorder& spans,
                         MetricSet* metrics) {
  LayerCheck check;
  {
    ScopedSpan span(&spans, "replay.queries");
    replay_queries(inputs, spans, metrics, &check);
  }
  for (const auto step : {replay_engine_writes, replay_wal, replay_recovery}) {
    if (!check.error.empty()) break;
    check.error = step(inputs, spans, metrics);
  }
  return check;
}

void replay_wire(
    const std::array<std::vector<std::vector<std::uint8_t>>, 3>& requests,
    const std::array<std::vector<std::vector<std::uint8_t>>, 3>& responses,
    SpanRecorder& spans, MetricSet* m) {
  std::string error;
  for (std::size_t kind = 0; kind < requests.size(); ++kind) {
    for (const auto& body : requests[kind]) {
      const std::vector<std::uint8_t> framed = srv::frame(body);
      srv::Request req;
      {
        ScopedSpan span(&spans, "wire.decode_request");
        srv::FrameAssembler assembler;
        std::vector<std::uint8_t> out;
        assembler.feed(framed);
        if (!assembler.next(&out) || !srv::decode_request(out, &req, &error)) {
          continue;
        }
      }
      if (req.op == srv::Op::kQuery && !req.sigs.empty()) {
        ScopedSpan span(&spans, "wire.encode_query");
        (void)srv::encode_query(req.seq, req.k, req.sigs[0]);
      } else if (req.op == srv::Op::kInsert && !req.sigs.empty()) {
        ScopedSpan span(&spans, "wire.encode_insert");
        (void)srv::encode_insert(req.seq, req.insert_ids[0], req.sigs[0]);
      }
    }
  }
  for (const auto& per_kind : responses) {
    for (const auto& body : per_kind) {
      const std::vector<std::uint8_t> framed = srv::frame(body);
      srv::Response resp;
      {
        ScopedSpan span(&spans, "wire.decode_response");
        srv::FrameAssembler assembler;
        std::vector<std::uint8_t> out;
        assembler.feed(framed);
        if (!assembler.next(&out) ||
            !srv::decode_response(out, &resp, &error)) {
          continue;
        }
      }
      ScopedSpan span(&spans, "wire.encode_response");
      (void)srv::encode_response(resp);
    }
  }
  for (const char* name : {"wire.encode_query", "wire.encode_insert",
                           "wire.decode_request", "wire.encode_response",
                           "wire.decode_response"}) {
    m->set(std::string(name) + "_us", p(spans.durations_us(name), 50));
  }
}

}  // namespace servebench

#include "core/sharded_index.hpp"

#include <algorithm>

#include "core/pipeline/factory.hpp"
#include "core/segment.hpp"
#include "core/sim_cost.hpp"
#include "util/check.hpp"
#include "util/trace.hpp"

namespace fast::core {

namespace {

/// Per-shard storage seed derivation — shared by the in-memory and durable
/// construction paths so both produce identical shard pipelines.
FastConfig shard_config(const FastConfig& config, std::size_t s) {
  FastConfig shard_cfg = config;
  shard_cfg.cuckoo.seed = config.cuckoo.seed + s * 0x51edULL;
  return shard_cfg;
}

std::vector<std::unique_ptr<Backend>> build_shards(
    const FastConfig& config, const vision::PcaModel& pca,
    std::size_t shards) {
  std::vector<std::unique_ptr<Backend>> built;
  built.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    built.push_back(make_backend(shard_config(config, s), pca));
  }
  return built;
}

}  // namespace

ShardedFastIndex::ShardedFastIndex(FastConfig config, vision::PcaModel pca,
                                   std::size_t shards, std::size_t threads)
    : ShardedFastIndex(config, build_shards(config, pca, shards), threads) {}

ShardedFastIndex::ShardedFastIndex(
    FastConfig config, std::vector<std::unique_ptr<Backend>> shards,
    std::size_t threads)
    : config_(std::move(config)), shard_map_(shards.size()),
      shards_(std::move(shards)), pool_(threads),
      metrics_(std::make_shared<util::MetricsRegistry>()) {
  FAST_CHECK(!shards_.empty());
  queries_ = &metrics_->counter("sharded.queries");
  inserts_ = &metrics_->counter("sharded.inserts");
  erases_ = &metrics_->counter("sharded.erases");
  scatter_msgs_ = &metrics_->counter("sharded.scatter_msgs");
  gather_msgs_ = &metrics_->counter("sharded.gather_msgs");
  routing_skips_ = &metrics_->counter("shard.routing_skips");
  batch_size_ = &metrics_->count_histogram("sharded.insert_batch_size");
  shard_batch_items_ = &metrics_->count_histogram("sharded.shard_batch_items");
  gather_candidates_ = &metrics_->count_histogram("sharded.gather_candidates");
  shards_probed_ = &metrics_->count_histogram("sharded.shards_probed");
  metrics_->gauge("sharded.shards")
      .set(static_cast<double>(shard_map_.shard_count()));
  metrics_->gauge("shard.routing_bits")
      .set(static_cast<double>(config_.shard_routing_bits));

  if (config_.shard_routing_bits > 0) {
    router_agg_ = pipeline::make_aggregator(config_);
    // A recovered shard may carry a calibrated LSH input scale; the
    // coordinator's key derivation must match the shards'.
    router_agg_->set_input_scale(front().config().lsh_input_scale);
    const std::size_t counters = std::size_t{1} << config_.shard_routing_bits;
    summaries_.reserve(shard_map_.shard_count());
    for (std::size_t s = 0; s < shard_map_.shard_count(); ++s) {
      summaries_.emplace_back(counters, /*k=*/4);
    }
    // The durable path hands this constructor pre-built recovered shards;
    // summaries are derived state, so repopulate them here (a no-op for
    // the fresh in-memory construction path).
    rebuild_routing_summaries();
  }
}

std::vector<std::uint64_t> ShardedFastIndex::routing_fingerprints(
    const hash::SparseSignature& signature, bool include_probes) const {
  std::vector<std::vector<std::uint64_t>> probes;
  const std::vector<std::uint64_t> keys =
      router_agg_->keys(signature, include_probes ? &probes : nullptr);
  std::vector<std::uint64_t> fps;
  fps.reserve(keys.size() * (include_probes ? 2 : 1));
  for (std::size_t t = 0; t < keys.size(); ++t) {
    fps.push_back(ImmutableSegment::key_fingerprint(t, keys[t]));
    if (include_probes) {
      for (const std::uint64_t pk : probes[t]) {
        fps.push_back(ImmutableSegment::key_fingerprint(t, pk));
      }
    }
  }
  return fps;
}

std::vector<std::size_t> ShardedFastIndex::route_query(
    const hash::SparseSignature& signature) const {
  // Only home keys are ever placed in a shard's store, so a probed key can
  // surface candidates only if it equals a resident home key — and every
  // resident home key is in the summary (no false negatives). Skipping a
  // shard whose summary excludes all probed keys is therefore lossless.
  const std::vector<std::uint64_t> fps =
      routing_fingerprints(signature, /*include_probes=*/true);
  std::vector<std::size_t> targets;
  targets.reserve(summaries_.size());
  for (std::size_t s = 0; s < summaries_.size(); ++s) {
    for (const std::uint64_t fp : fps) {
      if (summaries_[s].maybe_contains_u64(fp)) {
        targets.push_back(s);
        break;
      }
    }
  }
  return targets;
}

void ShardedFastIndex::routing_add(std::size_t s,
                                   const hash::SparseSignature& signature) {
  for (const std::uint64_t fp :
       routing_fingerprints(signature, /*include_probes=*/false)) {
    summaries_[s].insert_u64(fp);
  }
}

void ShardedFastIndex::routing_remove(std::size_t s,
                                      const hash::SparseSignature& signature) {
  for (const std::uint64_t fp :
       routing_fingerprints(signature, /*include_probes=*/false)) {
    summaries_[s].remove_u64(fp);
  }
}

std::optional<hash::SparseSignature> ShardedFastIndex::shard_signature(
    std::size_t s, std::uint64_t id) const {
  return shards_[s]->signature_of(id);
}

void ShardedFastIndex::routing_replace(std::size_t s, std::uint64_t id,
                                       const hash::SparseSignature& signature) {
  // Re-insert evicts the previous signature inside the shard; mirror the
  // eviction here so the counting summary stays balanced.
  if (const auto old = shard_signature(s, id)) routing_remove(s, *old);
  routing_add(s, signature);
}

void ShardedFastIndex::rebuild_routing_summaries() {
  if (!routing_enabled()) return;
  for (std::size_t s = 0; s < shard_map_.shard_count(); ++s) {
    shards_[s]->for_each_live(
        [&](std::uint64_t, const hash::SparseSignature& sig) {
          routing_add(s, sig);
        });
  }
}

storage::StatusOr<std::unique_ptr<ShardedFastIndex>>
ShardedFastIndex::open_or_recover(FastConfig config, vision::PcaModel pca,
                                  std::size_t shards,
                                  const DurabilityOptions& opts,
                                  RecoveryStats* stats, std::size_t threads) {
  FAST_CHECK(shards >= 1);
  RecoveryStats total;
  std::vector<std::unique_ptr<Backend>> built;
  for (std::size_t s = 0; s < shards; ++s) {
    DurabilityOptions shard_opts = opts;
    shard_opts.dir = opts.dir + "/shard-" + std::to_string(s);
    RecoveryStats shard_stats;
    auto shard = open_backend(shard_config(config, s), pca, shard_opts,
                              &shard_stats);
    if (!shard.ok()) return shard.status();
    built.push_back(std::move(shard).value());
    total.loaded_snapshot |= shard_stats.loaded_snapshot;
    total.snapshot_seq = std::max(total.snapshot_seq,
                                  shard_stats.snapshot_seq);
    total.snapshots_skipped += shard_stats.snapshots_skipped;
    total.segments_scanned += shard_stats.segments_scanned;
    total.replayed_records += shard_stats.replayed_records;
    total.wal_torn |= shard_stats.wal_torn;
  }
  std::unique_ptr<ShardedFastIndex> sharded(
      new ShardedFastIndex(std::move(config), std::move(built), threads));
  if (stats != nullptr) *stats = total;
  return sharded;
}

storage::Status ShardedFastIndex::save_snapshot() {
  storage::Status first;
  for (const auto& shard : shards_) {
    storage::Status s = shard->save_snapshot();
    if (!s.ok() && first.ok()) first = std::move(s);
  }
  return first;
}

std::size_t ShardedFastIndex::size() const noexcept {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->size();
  return n;
}

InsertResult ShardedFastIndex::insert(std::uint64_t id,
                                      const img::Image& image) {
  // FE+SM at the coordinator is the same work the shard would do, and the
  // routing summary can then track the placed signature.
  return insert_signature(id, front().summarize(image));
}

InsertResult ShardedFastIndex::insert_signature(
    std::uint64_t id, const hash::SparseSignature& signature) {
  inserts_->add();
  scatter_msgs_->add();
  const std::size_t s = shard_map_.shard_of(id);
  if (routing_enabled()) routing_replace(s, id, signature);
  return shards_[s]->insert_signature(id, signature);
}

bool ShardedFastIndex::erase(std::uint64_t id) {
  scatter_msgs_->add();
  const std::size_t s = shard_map_.shard_of(id);
  // Copy the live signature before the erase invalidates it; only decrement
  // the summary once the shard confirms the id was resident.
  std::optional<hash::SparseSignature> old;
  if (routing_enabled()) old = shard_signature(s, id);
  const bool erased = shards_[s]->erase(id);
  if (erased) {
    erases_->add();
    if (old) routing_remove(s, *old);
  }
  return erased;
}

std::vector<InsertResult> ShardedFastIndex::insert_batch(
    std::span<const BatchImage> items) {
  util::TraceSpan span("sharded.insert_batch");
  span.attr("items", static_cast<double>(items.size()));
  batch_size_->observe(static_cast<double>(items.size()));
  inserts_->add(items.size());
  scatter_msgs_->add(items.size());
  // FE+SM for the whole batch, fanned across the native pool.
  std::vector<hash::SparseSignature> sigs(items.size());
  pool_.parallel_for(items.size(), [&](std::size_t i) {
    sigs[i] = front().summarize(*items[i].image);
  });

  // Partition item indices into per-shard sub-batches, then let every
  // shard place its own sub-batch in parallel (shards are independent).
  const std::size_t ns = shard_map_.shard_count();
  std::vector<std::vector<std::size_t>> by_shard(ns);
  for (std::size_t i = 0; i < items.size(); ++i) {
    by_shard[shard_map_.shard_of(items[i].id)].push_back(i);
  }
  for (const auto& sub : by_shard) {
    shard_batch_items_->observe(static_cast<double>(sub.size()));
  }
  std::vector<InsertResult> results(items.size());
  pool_.parallel_for(ns, [&](std::size_t s) {
    util::TraceSpan shard_span("shard.place");
    shard_span.attr("shard", static_cast<double>(s));
    shard_span.attr("items", static_cast<double>(by_shard[s].size()));
    for (const std::size_t i : by_shard[s]) {
      // Summary writes are race-free here: each task touches only its own
      // shard's summary, mirroring the shard-disjoint placement below.
      if (routing_enabled()) routing_replace(s, items[i].id, sigs[i]);
      results[i] = shards_[s]->insert_signature(items[i].id, sigs[i]);
    }
  });
  return results;
}

std::vector<ShardedQueryResult> ShardedFastIndex::query_batch(
    std::span<const img::Image* const> images, std::size_t k) const {
  std::vector<hash::SparseSignature> sigs(images.size());
  pool_.parallel_for(images.size(), [&](std::size_t i) {
    sigs[i] = front().summarize(*images[i]);
  });

  // Per-query shard targets: all shards, or the routed subset when
  // summaries are active (route_query only reads the summaries, so it is
  // safe to fan across the pool).
  const std::size_t ns = shard_map_.shard_count();
  std::vector<std::vector<std::size_t>> targets(images.size());
  if (routing_enabled()) {
    pool_.parallel_for(images.size(),
                       [&](std::size_t q) { targets[q] = route_query(sigs[q]); });
  } else {
    for (auto& t : targets) {
      t.resize(ns);
      for (std::size_t s = 0; s < ns; ++s) t[s] = s;
    }
  }

  // Flat (query x probed-shard) probe matrix: every cell is independent, so
  // the pool schedules across both dimensions at once instead of
  // serializing queries behind each other's scatter-gather.
  struct Cell {
    std::size_t q, slot, s;
  };
  std::vector<Cell> cells;
  std::vector<std::vector<QueryResult>> per_query(images.size());
  for (std::size_t q = 0; q < images.size(); ++q) {
    per_query[q].resize(targets[q].size());
    for (std::size_t slot = 0; slot < targets[q].size(); ++slot) {
      cells.push_back(Cell{q, slot, targets[q][slot]});
    }
  }
  pool_.parallel_for(cells.size(), [&](std::size_t c) {
    const Cell& cell = cells[c];
    util::TraceSpan shard_span("shard.probe");
    shard_span.attr("shard", static_cast<double>(cell.s));
    shard_span.attr("query", static_cast<double>(cell.q));
    per_query[cell.q][cell.slot] = shards_[cell.s]->query_signature(sigs[cell.q], k);
  });

  std::vector<ShardedQueryResult> results;
  results.reserve(images.size());
  for (std::size_t q = 0; q < images.size(); ++q) {
    results.push_back(
        gather(std::move(per_query[q]), sigs[q], k, /*from_image=*/true));
  }
  return results;
}

ShardedQueryResult ShardedFastIndex::gather(
    std::vector<QueryResult> per_shard, const hash::SparseSignature& signature,
    std::size_t k, bool from_image) const {
  util::TraceSpan span("sharded.gather");
  span.attr("shards", static_cast<double>(per_shard.size()));
  queries_->add();
  scatter_msgs_->add(per_shard.size());
  gather_msgs_->add(per_shard.size());
  shards_probed_->observe(static_cast<double>(per_shard.size()));
  routing_skips_->add(shard_map_.shard_count() - per_shard.size());
  ShardedQueryResult merged;
  merged.cost =
      sim_cost::sharded_query(front(), signature, per_shard, k, from_image);
  for (const QueryResult& r : per_shard) {
    merged.candidates += r.candidates;
    merged.bucket_probes += r.bucket_probes;
    merged.hits.insert(merged.hits.end(), r.hits.begin(), r.hits.end());
  }

  std::sort(merged.hits.begin(), merged.hits.end(),
            [](const ScoredId& a, const ScoredId& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.id < b.id;
            });
  if (merged.hits.size() > k) merged.hits.resize(k);
  gather_candidates_->observe(static_cast<double>(merged.candidates));
  return merged;
}

ShardedQueryResult ShardedFastIndex::query(const img::Image& image,
                                           std::size_t k) const {
  // Summarize once at the front end; only the signature travels.
  return scatter(front().summarize(image), k, /*from_image=*/true);
}

ShardedQueryResult ShardedFastIndex::query_signature(
    const hash::SparseSignature& signature, std::size_t k) const {
  return scatter(signature, k, /*from_image=*/false);
}

ShardedQueryResult ShardedFastIndex::scatter(
    const hash::SparseSignature& signature, std::size_t k,
    bool from_image) const {
  util::TraceSpan span("sharded.query");
  std::vector<std::size_t> targets;
  if (routing_enabled()) {
    targets = route_query(signature);
  } else {
    targets.resize(shard_map_.shard_count());
    for (std::size_t s = 0; s < targets.size(); ++s) targets[s] = s;
  }
  span.attr("shards", static_cast<double>(targets.size()));
  std::vector<QueryResult> per_shard(targets.size());
  pool_.parallel_for(targets.size(), [&](std::size_t i) {
    util::TraceSpan shard_span("shard.probe");
    shard_span.attr("shard", static_cast<double>(targets[i]));
    per_shard[i] = shards_[targets[i]]->query_signature(signature, k);
  });
  return gather(std::move(per_shard), signature, k, from_image);
}

std::size_t ShardedFastIndex::index_bytes() const {
  std::size_t bytes = 0;
  for (const auto& s : shards_) bytes += s->index_bytes();
  return bytes;
}

}  // namespace fast::core

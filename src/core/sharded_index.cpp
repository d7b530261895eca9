#include "core/sharded_index.hpp"

#include <algorithm>

#include "core/pipeline/factory.hpp"
#include "core/segment.hpp"
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

std::vector<std::unique_ptr<FastIndex>> build_flat_shards(
    const FastConfig& config, const vision::PcaModel& pca,
    std::size_t shards) {
  std::vector<std::unique_ptr<FastIndex>> built;
  if (config.tier.enabled) return built;
  built.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    built.push_back(std::make_unique<FastIndex>(shard_config(config, s), pca));
  }
  return built;
}

std::vector<std::unique_ptr<TieredIndex>> build_tiered_shards(
    const FastConfig& config, const vision::PcaModel& pca,
    std::size_t shards) {
  std::vector<std::unique_ptr<TieredIndex>> built;
  if (!config.tier.enabled) return built;
  built.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    built.push_back(
        std::make_unique<TieredIndex>(shard_config(config, s), pca));
  }
  return built;
}

}  // namespace

ShardedFastIndex::ShardedFastIndex(FastConfig config, vision::PcaModel pca,
                                   std::size_t shards, std::size_t threads)
    : ShardedFastIndex(config, build_flat_shards(config, pca, shards),
                       build_tiered_shards(config, pca, shards), threads) {}

ShardedFastIndex::ShardedFastIndex(
    FastConfig config, std::vector<std::unique_ptr<FastIndex>> shards,
    std::vector<std::unique_ptr<TieredIndex>> tiered_shards,
    std::size_t threads)
    : config_(std::move(config)),
      shard_map_(shards.empty() ? tiered_shards.size() : shards.size()),
      shards_(std::move(shards)), tiered_shards_(std::move(tiered_shards)),
      pool_(threads), metrics_(std::make_shared<util::MetricsRegistry>()) {
  FAST_CHECK(shards_.empty() != tiered_shards_.empty());
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
    const FastConfig& shard_cfg = is_tiered() ? tiered_shards_.front()->config()
                                              : shards_.front()->config();
    router_agg_->set_input_scale(shard_cfg.lsh_input_scale);
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
  if (is_tiered()) return tiered_shards_[s]->find_signature(id);
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
    const auto add = [&](std::uint64_t, const hash::SparseSignature& sig) {
      routing_add(s, sig);
    };
    if (is_tiered()) {
      tiered_shards_[s]->for_each_live_signature(add);
    } else {
      shards_[s]->for_each_signature(add);
    }
  }
}

storage::StatusOr<std::unique_ptr<ShardedFastIndex>>
ShardedFastIndex::open_or_recover(FastConfig config, vision::PcaModel pca,
                                  std::size_t shards,
                                  const DurabilityOptions& opts,
                                  RecoveryStats* stats, std::size_t threads) {
  FAST_CHECK(shards >= 1);
  RecoveryStats total;
  std::vector<std::unique_ptr<FastIndex>> flat_built;
  std::vector<std::unique_ptr<TieredIndex>> tiered_built;
  for (std::size_t s = 0; s < shards; ++s) {
    DurabilityOptions shard_opts = opts;
    shard_opts.dir = opts.dir + "/shard-" + std::to_string(s);
    RecoveryStats shard_stats;
    if (config.tier.enabled) {
      auto index = TieredIndex::open_or_recover(shard_config(config, s), pca,
                                                shard_opts, &shard_stats);
      if (!index.ok()) return index.status();
      tiered_built.push_back(std::move(index).value());
    } else {
      auto index = FastIndex::open_or_recover(shard_config(config, s), pca,
                                              shard_opts, &shard_stats);
      if (!index.ok()) return index.status();
      flat_built.push_back(
          std::make_unique<FastIndex>(std::move(index).value()));
    }
    total.loaded_snapshot |= shard_stats.loaded_snapshot;
    total.snapshot_seq = std::max(total.snapshot_seq,
                                  shard_stats.snapshot_seq);
    total.snapshots_skipped += shard_stats.snapshots_skipped;
    total.segments_scanned += shard_stats.segments_scanned;
    total.replayed_records += shard_stats.replayed_records;
    total.wal_torn |= shard_stats.wal_torn;
  }
  std::unique_ptr<ShardedFastIndex> sharded(
      new ShardedFastIndex(std::move(config), std::move(flat_built),
                           std::move(tiered_built), threads));
  if (stats != nullptr) *stats = total;
  return sharded;
}

storage::Status ShardedFastIndex::save_snapshot() {
  storage::Status first;
  for (const auto& shard : shards_) {
    storage::Status s = shard->save_snapshot();
    if (!s.ok() && first.ok()) first = std::move(s);
  }
  for (const auto& shard : tiered_shards_) {
    storage::Status s = shard->save_snapshot();
    if (!s.ok() && first.ok()) first = std::move(s);
  }
  return first;
}

std::size_t ShardedFastIndex::size() const noexcept {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->size();
  for (const auto& s : tiered_shards_) n += s->size();
  return n;
}

hash::SparseSignature ShardedFastIndex::summarize_front(
    const img::Image& image) const {
  // Any shard's summarizer is equivalent (shards differ only in storage
  // seeds).
  return is_tiered() ? tiered_shards_.front()->summarize(image)
                     : shards_.front()->summarize(image);
}

sim::SimClock ShardedFastIndex::frontend_cost() const {
  return is_tiered() ? tiered_shards_.front()->frontend_insert_cost()
                     : shards_.front()->frontend_insert_cost();
}

InsertResult ShardedFastIndex::shard_insert_signature(
    std::size_t s, std::uint64_t id, const hash::SparseSignature& signature) {
  return is_tiered() ? tiered_shards_[s]->insert_signature(id, signature)
                     : shards_[s]->insert_signature(id, signature);
}

QueryResult ShardedFastIndex::shard_query_signature(
    std::size_t s, const hash::SparseSignature& signature,
    std::size_t k) const {
  return is_tiered() ? tiered_shards_[s]->query_signature(signature, k)
                     : shards_[s]->query_signature(signature, k);
}

InsertResult ShardedFastIndex::insert(std::uint64_t id,
                                      const img::Image& image) {
  inserts_->add();
  scatter_msgs_->add();
  const std::size_t s = shard_map_.shard_of(id);
  InsertResult r;
  if (routing_enabled()) {
    // Summarize at the coordinator (same FE+SM work the shard would do) so
    // the summary can track the placed signature; cost accounting matches
    // the direct shard->insert path exactly.
    const hash::SparseSignature sig = summarize_front(image);
    routing_replace(s, id, sig);
    r = shard_insert_signature(s, id, sig);
    r.cost.merge(frontend_cost());
  } else {
    r = is_tiered() ? tiered_shards_[s]->insert(id, image)
                    : shards_[s]->insert(id, image);
  }
  // Routing the signature to the owner node: one network hop.
  r.cost.charge(config_.cost.net_transfer_s(512));
  return r;
}

InsertResult ShardedFastIndex::insert_signature(
    std::uint64_t id, const hash::SparseSignature& signature) {
  inserts_->add();
  scatter_msgs_->add();
  const std::size_t s = shard_map_.shard_of(id);
  if (routing_enabled()) routing_replace(s, id, signature);
  InsertResult r = shard_insert_signature(s, id, signature);
  r.cost.charge(config_.cost.net_transfer_s(signature.storage_bytes()));
  return r;
}

bool ShardedFastIndex::erase(std::uint64_t id) {
  scatter_msgs_->add();
  const std::size_t s = shard_map_.shard_of(id);
  // Copy the live signature before the erase invalidates it; only decrement
  // the summary once the shard confirms the id was resident.
  std::optional<hash::SparseSignature> old;
  if (routing_enabled()) old = shard_signature(s, id);
  const bool erased = is_tiered() ? tiered_shards_[s]->erase(id)
                                  : shards_[s]->erase(id);
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
    sigs[i] = summarize_front(*items[i].image);
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
  const sim::SimClock frontend = frontend_cost();
  std::vector<InsertResult> results(items.size());
  pool_.parallel_for(ns, [&](std::size_t s) {
    util::TraceSpan shard_span("shard.place");
    shard_span.attr("shard", static_cast<double>(s));
    shard_span.attr("items", static_cast<double>(by_shard[s].size()));
    for (const std::size_t i : by_shard[s]) {
      // Summary writes are race-free here: each task touches only its own
      // shard's summary, mirroring the shard-disjoint placement below.
      if (routing_enabled()) routing_replace(s, items[i].id, sigs[i]);
      InsertResult stored = shard_insert_signature(s, items[i].id, sigs[i]);
      stored.cost.merge(frontend);
      stored.cost.charge(config_.cost.net_transfer_s(512));
      results[i] = std::move(stored);
    }
  });
  return results;
}

std::vector<QueryResult> ShardedFastIndex::query_batch(
    std::span<const img::Image* const> images, std::size_t k) const {
  std::vector<hash::SparseSignature> sigs(images.size());
  pool_.parallel_for(images.size(), [&](std::size_t i) {
    sigs[i] = summarize_front(*images[i]);
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
    per_query[cell.q][cell.slot] = shard_query_signature(cell.s, sigs[cell.q], k);
  });

  std::vector<QueryResult> results;
  results.reserve(images.size());
  for (auto& per_shard : per_query) {
    results.push_back(
        gather(std::move(per_shard), k, config_.feature_extract_s));
  }
  return results;
}

QueryResult ShardedFastIndex::gather(std::vector<QueryResult> per_shard,
                                     std::size_t k, double fe_cost) const {
  util::TraceSpan span("sharded.gather");
  span.attr("shards", static_cast<double>(per_shard.size()));
  queries_->add();
  scatter_msgs_->add(per_shard.size());
  gather_msgs_->add(per_shard.size());
  shards_probed_->observe(static_cast<double>(per_shard.size()));
  routing_skips_->add(shard_map_.shard_count() - per_shard.size());
  QueryResult merged;
  merged.cost.charge(fe_cost);
  double slowest_shard = 0;
  for (QueryResult& r : per_shard) {
    slowest_shard = std::max(slowest_shard, r.cost.elapsed_s());
    merged.candidates += r.candidates;
    merged.bucket_probes += r.bucket_probes;
    for (const ScoredId& hit : r.hits) merged.hits.push_back(hit);
    for (double t : r.parallel_tasks) merged.parallel_tasks.push_back(t);
  }
  // Scatter (signature to every probed shard) + parallel shard work +
  // gather (top-k id/score pairs back). When routing skipped every shard
  // there are no hops to charge.
  if (!per_shard.empty()) {
    const std::size_t scatter_bytes = 512;
    const std::size_t gather_bytes =
        k * (sizeof(std::uint64_t) + sizeof(float));
    merged.cost.charge(config_.cost.net_transfer_s(scatter_bytes));
    merged.cost.charge(slowest_shard);
    merged.cost.charge(config_.cost.net_transfer_s(gather_bytes));
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

QueryResult ShardedFastIndex::query(const img::Image& image,
                                    std::size_t k) const {
  // Summarize once at the front end; only the signature travels.
  const hash::SparseSignature sig = summarize_front(image);
  QueryResult r = query_signature(sig, k);
  // Account the front-end extraction in the merged cost.
  QueryResult with_fe = std::move(r);
  with_fe.cost.charge(config_.feature_extract_s);
  return with_fe;
}

QueryResult ShardedFastIndex::query_signature(
    const hash::SparseSignature& signature, std::size_t k) const {
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
    per_shard[i] = shard_query_signature(targets[i], signature, k);
  });
  return gather(std::move(per_shard), k, 0.0);
}

std::size_t ShardedFastIndex::index_bytes() const {
  std::size_t bytes = 0;
  for (const auto& s : shards_) bytes += s->index_bytes();
  for (const auto& s : tiered_shards_) bytes += s->index_bytes();
  return bytes;
}

}  // namespace fast::core

// Distributed FAST: the paper's 256-node deployment shape.
//
// Photos are hash-partitioned across shards (one per cluster node in the
// paper); each shard is an independent core::Backend over its partition,
// laid out per config.tier.enabled (make_backend), so a churn-heavy
// deployment can keep per-node ingest off the query path. Queries
// scatter the ~hundreds-of-bytes signature to all shards — not the image —
// gather the per-shard top-k and merge. Each query carries its simulated
// price (core::sim_cost::sharded_query): the scatter/gather network hops
// plus the slowest shard's local probe (shards work in parallel), which is
// what keeps the distributed query latency flat as nodes are added.
// Bloofi-style routing (DESIGN.md §3h): when config.shard_routing_bits > 0
// the facade keeps one counting-bloom summary per shard over the
// fingerprints of every resident signature's (table, home-key) pairs,
// maintained on insert/erase. Queries derive their probe keys once at the
// coordinator and skip shards whose summary excludes every probed key —
// those shards incur no scatter hop, no probe work, and no gather message.
// Summaries have no false negatives, so results are identical to the
// gather-all baseline (shard_routing_bits = 0).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/backend.hpp"
#include "hash/counting_bloom.hpp"
#include "sim/sim_clock.hpp"
#include "storage/shard.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace fast::core {

/// A merged scatter-gather answer (candidates and bucket probes summed over
/// the probed shards) and its simulated price.
struct ShardedQueryResult : QueryResult {
  sim::SimClock cost;
};

class ShardedFastIndex {
 public:
  /// `shards` independent partitions (make_backend per shard); `threads`
  /// native workers for parallel shard probing (0 = hardware concurrency).
  ShardedFastIndex(FastConfig config, vision::PcaModel pca,
                   std::size_t shards, std::size_t threads = 0);

  /// Durable sharded index: each shard recovers independently from its own
  /// snapshot + WAL directory (opts.dir/shard-<i>), with the same per-shard
  /// seed derivation as the in-memory constructor, so a recovered deployment
  /// is bit-identical to the pre-crash one. When `stats` is non-null it
  /// receives the aggregate across shards (counts summed, snapshot_seq the
  /// max, flags OR-ed).
  static storage::StatusOr<std::unique_ptr<ShardedFastIndex>> open_or_recover(
      FastConfig config, vision::PcaModel pca, std::size_t shards,
      const DurabilityOptions& opts, RecoveryStats* stats = nullptr,
      std::size_t threads = 0);

  /// Snapshots every shard (each rotates its own WAL). All shards are
  /// attempted; the first error is returned.
  storage::Status save_snapshot();

  std::size_t shard_count() const noexcept { return shard_map_.shard_count(); }
  std::size_t size() const noexcept;
  const FastConfig& config() const noexcept { return config_; }

  /// Shard that owns an image id.
  std::size_t shard_of(std::uint64_t id) const noexcept {
    return shard_map_.shard_of(id);
  }

  /// Summarizes at the coordinator and inserts the signature into the
  /// owning shard; only the signature travels.
  InsertResult insert(std::uint64_t id, const img::Image& image);
  InsertResult insert_signature(std::uint64_t id,
                                const hash::SparseSignature& signature);

  /// Batch ingest: FE+SM for the whole batch fans across the native pool,
  /// then each shard places its sub-batch — shards are independent, so the
  /// placement phase itself runs shard-parallel. Per-item results match
  /// insert(); results[i] corresponds to items[i].
  std::vector<InsertResult> insert_batch(std::span<const BatchImage> items);

  /// Erases from the owning shard; false when no shard held the id.
  bool erase(std::uint64_t id);

  /// Scatter-gather query across all shards; shards probe in parallel
  /// (native threads) and the merged top-k is returned. The simulated cost
  /// is scatter + max over shards + gather, plus the front end for an
  /// image.
  ShardedQueryResult query(const img::Image& image, std::size_t k) const;
  ShardedQueryResult query_signature(const hash::SparseSignature& signature,
                                     std::size_t k) const;

  /// Batch scatter-gather: summarization and the (query x shard) probe
  /// matrix both fan across the native pool; results match per-item
  /// query() calls.
  std::vector<ShardedQueryResult> query_batch(
      std::span<const img::Image* const> images, std::size_t k) const;

  /// Sum of all shards' in-memory index bytes.
  std::size_t index_bytes() const;

  /// A shard's local backend (tests, rebalancing tooling).
  const Backend& shard(std::size_t i) const { return *shards_.at(i); }

  /// Scatter/gather and fan-out observability for the distributed frontend
  /// (per-shard stage metrics live in each shard's own registry).
  util::MetricsRegistry& metrics() const noexcept { return *metrics_; }

  /// True when per-shard routing summaries are active
  /// (config.shard_routing_bits > 0).
  bool routing_enabled() const noexcept { return !summaries_.empty(); }

 private:
  /// Assembles the facade around pre-built shard backends (the durable
  /// path recovers each shard before construction).
  ShardedFastIndex(FastConfig config,
                   std::vector<std::unique_ptr<Backend>> shards,
                   std::size_t threads);

  /// Merges the probed shards' answers to `signature` into the top-k and
  /// prices the scatter-gather.
  ShardedQueryResult gather(std::vector<QueryResult> per_shard,
                            const hash::SparseSignature& signature,
                            std::size_t k, bool from_image) const;
  /// Probes the shards routing selects for `signature`, in parallel.
  ShardedQueryResult scatter(const hash::SparseSignature& signature,
                             std::size_t k, bool from_image) const;

  // --- Bloofi-style routing (no-ops when routing_enabled() is false) ---

  /// Fingerprints of the signature's (table, key) pairs in the summary
  /// domain: home keys only for maintenance, home + probe keys for queries.
  std::vector<std::uint64_t> routing_fingerprints(
      const hash::SparseSignature& signature, bool include_probes) const;
  /// Shard indices whose summary may contain at least one probed key.
  std::vector<std::size_t> route_query(
      const hash::SparseSignature& signature) const;
  void routing_add(std::size_t s, const hash::SparseSignature& signature);
  void routing_remove(std::size_t s, const hash::SparseSignature& signature);
  /// Insert-path maintenance: removes the id's previous signature from
  /// shard `s`'s summary (re-insert evicts it) and adds the new one.
  /// Callers must only touch the summary of the shard they own in a
  /// parallel batch — summaries are not internally synchronized (same
  /// contract as shard writes).
  void routing_replace(std::size_t s, std::uint64_t id,
                       const hash::SparseSignature& signature);
  /// The id's currently-live signature in shard `s` (copy), if any.
  std::optional<hash::SparseSignature> shard_signature(std::size_t s,
                                                       std::uint64_t id) const;
  /// Repopulates every summary from its shard's resident signatures.
  /// Summaries are derived state: recovery rebuilds them instead of
  /// persisting them, so they can never be stale relative to the WAL tail.
  void rebuild_routing_summaries();

  /// The coordinator's front end: any shard's summarizer is equivalent
  /// (shards differ only in storage seeds).
  const Backend& front() const { return *shards_.front(); }

  FastConfig config_;
  storage::ShardMap shard_map_;
  std::vector<std::unique_ptr<Backend>> shards_;
  mutable util::ThreadPool pool_;
  std::shared_ptr<util::MetricsRegistry> metrics_;
  /// Coordinator-side key derivation for routing: shards differ only in
  /// storage seeds, so one aggregator derives every shard's bucket keys.
  /// Null when routing is off.
  std::unique_ptr<pipeline::SemanticAggregator> router_agg_;
  /// One summary per shard; empty when routing is off. Reads are lock-free
  /// (const); writers follow the shard-write synchronization contract.
  std::vector<hash::CountingBloomFilter> summaries_;
  util::Counter* queries_ = nullptr;
  util::Counter* inserts_ = nullptr;
  util::Counter* erases_ = nullptr;
  util::Counter* scatter_msgs_ = nullptr;
  util::Counter* gather_msgs_ = nullptr;
  util::Counter* routing_skips_ = nullptr;
  util::Histogram* batch_size_ = nullptr;
  util::Histogram* shard_batch_items_ = nullptr;
  util::Histogram* gather_candidates_ = nullptr;
  util::Histogram* shards_probed_ = nullptr;
};

}  // namespace fast::core

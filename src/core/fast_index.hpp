// FastIndex — the paper's primary contribution, assembled end to end from
// four composable stages:
//
//   FE  (feature extraction)   DoG interest points + PCA-SIFT descriptors
//   SM  (summarization)        per-image Bloom filter over quantized
//                              descriptors, stored sparsely (~40 B/image)
//   SA  (semantic aggregation) per-table bucket keys over the summaries:
//                              p-stable LSH with multi-probe, or MinHash
//                              banding (pipeline::SemanticAggregator)
//   CHS (storage)              bucket-key -> correlation group: flat
//                              windowed cuckoo addressing, or the chained
//                              vertical-addressing baseline
//                              (pipeline::GroupStore)
//
// The index is a thin composition over pipeline::{Summarizer,
// SemanticAggregator, GroupStore}; backends are selected by FastConfig (or
// injected directly) instead of being hard-wired here. Queries are O(1):
// L tables x (1 + probes) x bounded slot reads, all constants under flat
// addressing, followed by ranking the (small) candidate set by sparse-
// signature Jaccard similarity. Every operation reports simulated platform
// costs (see sim::CostModel) alongside its native execution.
//
// Batch-first execution: insert_batch/query_batch fan the expensive FE+SM
// stage across a util::ThreadPool before touching index state, so the
// placement phase (and, in the concurrent facade, the writer lock) runs
// once over precomputed signatures.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "core/durability.hpp"
#include "core/pipeline/group_store.hpp"
#include "core/pipeline/semantic_aggregator.hpp"
#include "core/pipeline/summarizer.hpp"
#include "core/result.hpp"
#include "hash/signature_slab.hpp"
#include "hash/sparse_signature.hpp"
#include "img/image.hpp"
#include "storage/durable_log.hpp"
#include "vision/pca.hpp"

namespace fast::util {
class ThreadPool;
class MetricsRegistry;
class Counter;
class Gauge;
class Histogram;
}

namespace fast::core {

/// One item of a batched ingest: the image stays owned by the caller.
struct BatchImage {
  std::uint64_t id = 0;
  const img::Image* image = nullptr;
};

class FastIndex {
 public:
  /// `pca` is the PCA-SIFT eigenspace, trained offline on a sample of the
  /// corpus (see vision::train_pca_sift). Stages are built from `config`
  /// via pipeline::make_* factories.
  FastIndex(FastConfig config, vision::PcaModel pca);

  /// Stage-injection constructor: composes caller-provided FE/SM, SA and
  /// CHS implementations (tests, experimental backends). The aggregator
  /// and store must agree on the table count; the summarizer's signature
  /// width must match config.bloom_bits.
  FastIndex(FastConfig config,
            std::unique_ptr<pipeline::Summarizer> summarizer,
            std::unique_ptr<pipeline::SemanticAggregator> aggregator,
            std::unique_ptr<pipeline::GroupStore> store);

  const FastConfig& config() const noexcept { return config_; }
  std::size_t size() const noexcept { return slab_.size(); }
  std::size_t group_count() const noexcept { return groups_.size(); }
  std::size_t rehash_count() const noexcept { return rehashes_; }

  // --- FE + SM ---

  /// Runs feature extraction + Bloom summarization for one image.
  hash::SparseSignature summarize(const img::Image& image) const;

  /// Simulated frontend cost every image-ingest path must charge on top of
  /// insert_signature: feature extraction plus the k Bloom hash ops per
  /// descriptor group. Factored out so the concurrent and sharded
  /// frontends account identically to insert() (they used to drop it).
  sim::SimClock frontend_insert_cost() const noexcept;

  /// Tunes the LSH input scale from sample queries against a corpus sample
  /// (the paper's R-selection procedure, §IV-A2): the median query-to-
  /// nearest-neighbor distance is mapped to calibrate_target * omega. Must
  /// be called before the first insert; a no-op when either sample is empty.
  /// The O(queries * corpus) brute-force NN sweep fans across `pool` when
  /// provided (per-query scans are independent); results are identical to
  /// the sequential path.
  void calibrate_scale(std::span<const hash::SparseSignature> sample_queries,
                       std::span<const hash::SparseSignature> corpus_sample,
                       util::ThreadPool* pool = nullptr);

  // --- Insert path ---

  /// Full pipeline insert: extract, summarize, aggregate, store.
  InsertResult insert(std::uint64_t id, const img::Image& image);

  /// Inserts a precomputed signature (e.g., shipped by a mobile client).
  InsertResult insert_signature(std::uint64_t id,
                                const hash::SparseSignature& signature);

  /// Batch ingest: FE+SM runs for all items first — fanned across `pool`
  /// when provided — then placement proceeds in item order, so the final
  /// index state is identical to sequential insert() calls. Per-item
  /// results match insert()'s cost accounting.
  std::vector<InsertResult> insert_batch(std::span<const BatchImage> items,
                                         util::ThreadPool* pool = nullptr);

  /// Removes an image from the index: its id leaves every correlation
  /// group it joined and its signature is dropped (photo-retention expiry
  /// in the cloud deployment). Returns false when the id is unknown.
  bool erase(std::uint64_t id);

  // --- Durability (snapshot + WAL; see core/durability.hpp) ---

  /// Opens a durable index in opts.dir: loads the newest intact snapshot,
  /// replays the WAL tail (truncating a torn in-flight record), and starts
  /// a fresh WAL segment. An empty or absent directory yields an empty
  /// durable index. Hard errors: a snapshot written by a future format
  /// version (kBadVersion), a snapshot whose geometry fingerprint does not
  /// match `config` (kConfigMismatch), or filesystem failure; a corrupt
  /// newest snapshot is NOT a hard error — recovery falls back to the
  /// previous one (stats->snapshots_skipped).
  static storage::StatusOr<FastIndex> open_or_recover(
      FastConfig config, vision::PcaModel pca, const DurabilityOptions& opts,
      RecoveryStats* stats = nullptr);

  /// Writes a full snapshot of the index at the current sequence number and
  /// rotates the WAL. One previous snapshot generation (and the WAL
  /// segments it does not cover) is retained so recovery can fall back past
  /// a latent-corrupt newest image without losing records; anything older
  /// is deleted. Requires a durable index.
  storage::Status save_snapshot();

  /// True when mutations are WAL-logged (index came from open_or_recover).
  bool durable() const noexcept { return log_ != nullptr; }

  /// Forces an fsync of any WAL records buffered by a wal_sync_every > 1
  /// group-commit cadence, so every acknowledged mutation is durable (the
  /// server drains through this on graceful shutdown). No-op when already
  /// synced or non-durable.
  storage::Status sync_wal();

  /// Sequence number of the last applied mutation (0 before any).
  std::uint64_t last_seq() const noexcept {
    return log_ != nullptr ? log_->last_seq() : 0;
  }

  // --- Query path ---

  /// Full pipeline query: returns the top-k most similar images.
  QueryResult query(const img::Image& image, std::size_t k) const;

  /// Query with a precomputed signature.
  QueryResult query_signature(const hash::SparseSignature& signature,
                              std::size_t k) const;

  /// query() minus summarization: costs for a query whose signature was
  /// just extracted from an image (FE charge + Bloom hash ops + parallel FE
  /// task chunks). Public so the concurrent frontend charges queries
  /// identically to query() after summarizing outside its lock.
  QueryResult query_summarized(const hash::SparseSignature& signature,
                               std::size_t k) const;

  /// Batch query: FE+SM and the per-query probe/rank work both fan across
  /// `pool` when provided. Results are identical to per-item query() calls.
  std::vector<QueryResult> query_batch(
      std::span<const img::Image* const> images, std::size_t k,
      util::ThreadPool* pool = nullptr) const;

  /// The stored signature of an image, unpacked (for tests / re-ranking).
  std::optional<hash::SparseSignature> signature_of(std::uint64_t id) const;

  /// Visits every resident (id, signature) pair in unspecified order,
  /// unpacking each signature. Used by the sharded facade to rebuild its
  /// routing summaries after recovery; not a hot path.
  template <typename Fn>
  void for_each_signature(Fn&& fn) const {
    for (const auto& [id, slot] : slot_of_) fn(id, slab_.unpack(slot));
  }

  /// Ids of the members of correlation group `g`, in membership order
  /// (diagnostics/tests; erased groups stay as empty husks).
  std::vector<std::uint64_t> group_members(std::size_t g) const;

  /// Per-stage observability: FE/SM timing, SA key derivation, CHS probe
  /// distributions and occupancy accumulate here (metric names in
  /// DESIGN.md §3b). Thread-safe to read and update concurrently; shared
  /// with the concurrent/sharded frontends wrapping this index.
  util::MetricsRegistry& metrics() const noexcept { return *metrics_; }

  /// Total bytes of the index: encoded signatures + storage slots +
  /// group membership lists + aggregator parameters. This is the FAST
  /// column of Table IV.
  std::size_t index_bytes() const;

  /// Aggregate storage statistics across the L tables.
  hash::CuckooStats cuckoo_stats() const;

 private:
  /// Cached instrument pointers so hot paths (queries racing through the
  /// concurrent facade's shared lock) update metrics with relaxed atomic
  /// increments only — never the registry mutex.
  struct StageMetrics {
    util::Counter* fe_sm_images = nullptr;
    util::Histogram* fe_sm_summarize_s = nullptr;
    util::Counter* inserts = nullptr;
    util::Counter* erases = nullptr;
    util::Counter* queries = nullptr;
    util::Histogram* insert_sim_s = nullptr;
    util::Histogram* query_sim_s = nullptr;
    util::Counter* sa_keys_derived = nullptr;
    util::Counter* sa_insert_hash_ops = nullptr;
    // Native wall time of one aggregator_->keys() call. Deliberately
    // separate from sa.insert_hash_ops: the ops counter charges the paper's
    // dense L*M*dim flop model to the simulated platform, while this
    // histogram tracks what the real (sparse) kernel actually costs.
    util::Histogram* sa_keys_wall_s = nullptr;
    util::Histogram* sa_probe_keys = nullptr;
    // Native wall time of candidate scoring + top-k selection per query
    // (same name and meaning in TieredIndex).
    util::Histogram* rank_wall_s = nullptr;
    util::Counter* chs_group_hits = nullptr;
    util::Counter* chs_group_creates = nullptr;
    util::Counter* chs_rehash_events = nullptr;
    util::Counter* chs_slot_reads = nullptr;
    util::Counter* chs_fingerprint_false_hits = nullptr;
    util::Histogram* chs_bucket_probes = nullptr;
    util::Histogram* chs_candidates = nullptr;
    util::Gauge* chs_load_factor = nullptr;
    util::Gauge* chs_occupied_slots = nullptr;
    util::Gauge* chs_capacity_slots = nullptr;
    util::Gauge* chs_insert_failures = nullptr;
    util::Gauge* chs_total_kicks = nullptr;
    util::Gauge* chs_max_kick_chain = nullptr;
    util::Gauge* chs_store_bytes = nullptr;
    util::Gauge* index_size = nullptr;
    util::Gauge* index_groups = nullptr;
  };

  /// Registers this index's instruments and caches their pointers.
  void init_metrics();

  /// Refreshes the CHS occupancy/kick gauges from the store (write paths).
  void publish_storage_gauges();

  /// Runs FE+SM for `images`, fanned across `pool` when provided.
  std::vector<hash::SparseSignature> summarize_batch(
      std::span<const img::Image* const> images, util::ThreadPool* pool) const;

  /// Mutation bodies, shared by the public (WAL-logging) wrappers and WAL
  /// replay. They touch only in-memory state — never the log — so replay
  /// reproduces exactly the state the original calls built.
  InsertResult apply_insert(std::uint64_t id,
                            const hash::SparseSignature& signature);
  bool apply_erase(std::uint64_t id);

  /// Serializes the full index state at last_seq().
  storage::SnapshotFile build_snapshot() const;
  /// Restores state from a validated snapshot; false = undecodable content,
  /// with the index left untouched (recovery falls back to an older one).
  bool restore_snapshot(const storage::SnapshotFile& snapshot);

  FastConfig config_;
  std::unique_ptr<pipeline::Summarizer> summarizer_;
  std::unique_ptr<pipeline::SemanticAggregator> aggregator_;
  std::unique_ptr<pipeline::GroupStore> store_;
  // Group id -> member slots of slab_. Queries rank straight off the
  // slots; slot_of_ maps ids to slots for the write, lookup and snapshot
  // paths, never for a query.
  std::vector<std::vector<std::uint32_t>> groups_;
  hash::SignatureSlab slab_;
  std::unordered_map<std::uint64_t, std::uint32_t> slot_of_;
  std::size_t rehashes_ = 0;
  // shared_ptr keeps the registry (which holds mutexes/atomics and cannot
  // move) stable across FastIndex moves, so the cached pointers stay valid.
  std::shared_ptr<util::MetricsRegistry> metrics_;
  StageMetrics m_;

  // Snapshot + WAL; null for a purely in-memory index. Mutations are
  // single-writer (the facades serialize them), so appends never race a
  // checkpoint.
  std::unique_ptr<storage::DurableLog> log_;
};

}  // namespace fast::core

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
// signature Jaccard similarity. Every operation reports the work it did
// (slot reads, candidates); core::sim_cost prices that work on the
// simulated evaluation platform.
//
// The flat layout of core::Backend (core/backend.hpp): the shared front end
// lives in the base; this class is one core::IndexLayer — the group store,
// the slot-holding membership lists and the signature slab — under one
// single-writer lock. FE+SM and SA key derivation run outside the lock;
// queries share it for the probe and the scoring; a write batch takes it
// exclusively once. The lock is taken through Backend's traced helper.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/backend.hpp"
#include "core/index_layer.hpp"
#include "core/pipeline/group_store.hpp"

namespace fast::core {

class FastIndex final : public Backend {
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

  /// Moves the index state, never a held lock: moving an index another
  /// thread is using is a bug.
  FastIndex(FastIndex&&) = default;
  FastIndex& operator=(FastIndex&&) = default;

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

  std::size_t size() const override;
  std::size_t index_bytes() const override;
  std::optional<hash::SparseSignature> signature_of(
      std::uint64_t id) const override;
  void for_each_live(
      const std::function<void(std::uint64_t, const hash::SparseSignature&)>&
          fn) const override;

  /// Writes a full snapshot under the writer lock, so the image captures a
  /// point between mutations, and rotates the WAL. One previous snapshot
  /// generation (and the WAL segments it does not cover) is retained so
  /// recovery can fall back past a latent-corrupt newest image without
  /// losing records; anything older is deleted.
  storage::Status save_snapshot() override;

  // --- Flat-layout diagnostics (tests, benches) ---

  std::size_t group_count() const;
  std::size_t rehash_count() const;
  /// Ids of the members of correlation group `g`, in membership order
  /// (erased groups stay as empty husks).
  std::vector<std::uint64_t> group_members(std::size_t g) const;

  /// Writer (exclusive) lock acquisitions so far: one per write batch.
  std::size_t writer_lock_count() const noexcept;

 protected:
  void place(std::span<Placement> batch) override;
  std::size_t remove(std::span<const std::uint64_t> ids) override;
  void gather(std::span<const std::uint64_t> keys,
              std::span<const std::vector<std::uint64_t>> probes,
              const hash::JaccardScorer& scorer, Gathered& out,
              util::TraceSpan& probe_span) const override;
  bool restore_snapshot(const storage::SnapshotFile& snapshot) override;

 private:
  struct LayoutMetrics {
    util::Counter* chs_group_hits = nullptr;
    util::Counter* chs_group_creates = nullptr;
    util::Counter* chs_rehash_events = nullptr;
    util::Gauge* chs_load_factor = nullptr;
    util::Gauge* chs_occupied_slots = nullptr;
    util::Gauge* chs_capacity_slots = nullptr;
    util::Gauge* chs_insert_failures = nullptr;
    util::Gauge* chs_total_kicks = nullptr;
    util::Gauge* chs_max_kick_chain = nullptr;
    util::Gauge* chs_store_bytes = nullptr;
    util::Gauge* index_groups = nullptr;
  };

  /// Refreshes the CHS occupancy/kick gauges from the store (write paths).
  void publish_storage_gauges();

  /// Mutation bodies, run under the writer lock. They touch only in-memory
  /// state — never the log.
  void apply_insert(Placement& p);
  bool apply_erase(std::uint64_t id);

  /// Serializes the full index state at last_seq().
  storage::SnapshotFile build_snapshot() const;

  IndexLayer layer_;
  std::size_t rehashes_ = 0;
  LayoutMetrics lm_;
  // Queries share it; mutations and snapshots hold it exclusively, so
  // appends never race a checkpoint.
  IndexMutex mutex_;
};

}  // namespace fast::core

// TieredIndex — LSM-style layered assembly of the FAST pipeline
// (DESIGN.md §3f).
//
// Layout: ids are hash-partitioned across a few independent LANES. Each
// lane holds one small mutable MemtableIndex guarded by its own
// shared_mutex, plus a newest-first list of ImmutableSegments published
// as one shared_ptr that is swapped whole. Inserts derive bucket keys
// OUTSIDE any lock, then take only their lane's mutex for the bounded
// placement work; once a memtable reaches tier.seal_threshold mentions it
// is sealed — an O(1) move into a frozen segment — off the hot path.
// Queries take each lane's mutex in shared mode only for the memtable
// probe; segments are read off a pinned copy of the list pointer (taken
// under a mutex held only for that copy), and a per-segment bloom
// summary skips segments that cannot contain any probe key. A background
// thread finalizes segment blooms and merges adjacent segment runs under a
// size-tiered policy (tier.compact_fanin / compact_trigger) without ever
// blocking readers: merges build a fresh frozen state aside and swap the
// published list pointer.
//
// Shadowing: within a lane, the newest layer mentioning an id owns it
// (memtable, then segments newest→oldest); a mention is either a live
// signature or a tombstone. Because candidate generation unions group
// members across layers and ranking is a pure function of live signatures,
// query results are identical to a single flat FastIndex holding the same
// live set — tier_test asserts hit-and-score equality.
//
// Durability runs on the same storage::DurableLog as FastIndex: one global
// WAL (records appended under the lane lock so per-lane apply order equals
// sequence order), and full-tier checkpoints — manifest of live segments
// per lane + one CRC-framed section per memtable and segment — with the
// same rotation, retention and fencing.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "core/durability.hpp"
#include "core/memtable_index.hpp"
#include "core/pipeline/semantic_aggregator.hpp"
#include "core/pipeline/summarizer.hpp"
#include "core/result.hpp"
#include "core/segment.hpp"
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

struct BatchImage;

class TieredIndex {
 public:
  /// Newest-first; immutable once published (replaced wholesale).
  using SegmentList = std::vector<std::shared_ptr<const ImmutableSegment>>;

  TieredIndex(FastConfig config, vision::PcaModel pca);
  ~TieredIndex();

  TieredIndex(const TieredIndex&) = delete;
  TieredIndex& operator=(const TieredIndex&) = delete;

  /// Durable tiered index in opts.dir: newest intact snapshot (manifest +
  /// segments + memtables), WAL tail replayed through the normal mutation
  /// path (so seals re-fire at the same thresholds), fresh WAL segment.
  /// Same error contract as FastIndex::open_or_recover.
  static storage::StatusOr<std::unique_ptr<TieredIndex>> open_or_recover(
      FastConfig config, vision::PcaModel pca, const DurabilityOptions& opts,
      RecoveryStats* stats = nullptr);

  const FastConfig& config() const noexcept { return config_; }
  /// Live images (inserted and not erased), across all layers.
  std::size_t size() const noexcept {
    return live_.load(std::memory_order_relaxed);
  }
  std::size_t lane_count() const noexcept { return lanes_.size(); }
  std::size_t segment_count() const;
  /// Tombstones still pending compaction (memtables + segments).
  std::size_t tombstone_count() const;
  std::size_t index_bytes() const;
  util::MetricsRegistry& metrics() const noexcept { return *metrics_; }

  bool durable() const noexcept { return log_ != nullptr; }
  std::uint64_t last_seq() const {
    return log_ != nullptr ? log_->last_seq() : 0;
  }

  // --- FE + SM (identical to FastIndex) ---
  hash::SparseSignature summarize(const img::Image& image) const;
  sim::SimClock frontend_insert_cost() const noexcept;
  void calibrate_scale(std::span<const hash::SparseSignature> sample_queries,
                       std::span<const hash::SparseSignature> corpus_sample,
                       util::ThreadPool* pool = nullptr);

  // --- Mutations ---
  InsertResult insert(std::uint64_t id, const img::Image& image);
  InsertResult insert_signature(std::uint64_t id,
                                const hash::SparseSignature& signature);
  /// FE+SM fans across `pool`; placement runs in item order.
  std::vector<InsertResult> insert_batch(std::span<const BatchImage> items,
                                         util::ThreadPool* pool = nullptr);
  bool erase(std::uint64_t id);
  /// Erases each id (skipping unknowns); returns the number erased.
  std::size_t erase_batch(std::span<const std::uint64_t> ids);

  // --- Queries ---
  QueryResult query(const img::Image& image, std::size_t k) const;
  QueryResult query_signature(const hash::SparseSignature& signature,
                              std::size_t k) const;
  QueryResult query_summarized(const hash::SparseSignature& signature,
                               std::size_t k) const;
  std::vector<QueryResult> query_batch(
      std::span<const img::Image* const> images, std::size_t k,
      util::ThreadPool* pool = nullptr) const;

  /// Stored signature of a live id (copy: the owning layer may be compacted
  /// away at any time); nullopt when absent or tombstoned.
  std::optional<hash::SparseSignature> find_signature(std::uint64_t id) const;

  /// Visits every live (id, signature) pair across all layers, honoring
  /// shadowing (the newest layer mentioning an id owns it, same rule as
  /// find_signature). Used by the sharded facade to rebuild its routing
  /// summaries after recovery; not a hot path.
  void for_each_live_signature(
      const std::function<void(std::uint64_t, const hash::SparseSignature&)>&
          fn) const;

  // --- Durability ---
  storage::Status save_snapshot();
  /// Forces an fsync of WAL records buffered by wal_sync_every > 1 (see
  /// FastIndex::sync_wal). No-op when already synced or non-durable.
  storage::Status sync_wal();

  // --- Maintenance (tests / benches) ---
  /// Seals every non-empty memtable regardless of threshold.
  void seal_active();
  /// One synchronous maintenance pass: finalizes segment blooms, then
  /// merges every eligible run. Returns true when anything was merged.
  /// Safe to call concurrently with the background worker (serialized).
  bool compact_once();
  /// Blocks until the background worker has drained its queue.
  void wait_idle() const;

 private:
  /// A lane's published segment list. load() pins the current list; the
  /// mutex covers only the pointer copy or swap, never a reader's use of
  /// the list. (libstdc++ 12's std::atomic<std::shared_ptr> is also a lock,
  /// but its load() releases it with relaxed order, so the pointer read
  /// races the next store under the C++ memory model and TSan reports it.)
  class SegmentListCell {
   public:
    std::shared_ptr<const SegmentList> load() const {
      std::lock_guard<std::mutex> lk(mutex_);
      return list_;
    }
    void store(std::shared_ptr<const SegmentList> list) {
      {
        std::lock_guard<std::mutex> lk(mutex_);
        list_.swap(list);
      }
      // `list` now holds the old list; it is released outside the lock.
    }

   private:
    mutable std::mutex mutex_;
    std::shared_ptr<const SegmentList> list_;
  };

  struct Lane {
    mutable std::shared_mutex mem_mutex;
    std::unique_ptr<MemtableIndex> mem;
    /// Replaced under publish_mutex (seal prepend, bloom upgrade,
    /// compaction splice).
    SegmentListCell segments;
    std::mutex publish_mutex;
  };

  struct TierMetrics {
    util::Counter* fe_sm_images = nullptr;
    util::Histogram* fe_sm_summarize_s = nullptr;
    util::Counter* inserts = nullptr;
    util::Counter* erases = nullptr;
    util::Counter* queries = nullptr;
    util::Histogram* insert_sim_s = nullptr;
    util::Histogram* query_sim_s = nullptr;
    util::Histogram* query_wall_s = nullptr;
    util::Counter* sa_keys_derived = nullptr;
    util::Counter* sa_insert_hash_ops = nullptr;
    util::Histogram* sa_keys_wall_s = nullptr;
    util::Histogram* sa_probe_keys = nullptr;
    // Scoring wall time per query, memtable and segment candidates summed,
    // plus top-k selection (same name and meaning in FastIndex).
    util::Histogram* rank_wall_s = nullptr;
    util::Counter* chs_slot_reads = nullptr;
    util::Histogram* chs_bucket_probes = nullptr;
    util::Histogram* chs_candidates = nullptr;
    util::Gauge* index_size = nullptr;
    util::Gauge* tier_lanes = nullptr;
    util::Gauge* tier_memtable_entries = nullptr;
    util::Gauge* tier_tombstones = nullptr;
    util::Counter* tier_seals = nullptr;
    util::Counter* tier_segment_skips = nullptr;
    util::Gauge* segment_count = nullptr;
    util::Counter* compaction_runs = nullptr;
    util::Counter* compaction_dropped_tombstones = nullptr;
    util::Histogram* compaction_merge_s = nullptr;
    util::Histogram* compaction_merge_entries = nullptr;
    util::Histogram* compaction_merged_segments = nullptr;
  };

  TieredIndex(FastConfig config, vision::PcaModel pca, bool start_worker);

  void init_metrics();
  std::size_t lane_of(std::uint64_t id) const noexcept {
    return static_cast<std::size_t>((id * 0x9e3779b97f4a7c15ULL) >> 32) %
           lanes_.size();
  }

  /// Newest segment mention of `id` in the lane is a live signature.
  static bool segments_contain_live(const Lane& lane, std::uint64_t id);

  /// Caller holds lane.mem_mutex exclusively.
  bool maybe_seal_locked(Lane& lane, std::size_t lane_idx);
  void seal_locked(Lane& lane, std::size_t lane_idx);

  /// Wakes the worker, or runs the pass inline when there is none
  /// (tier.background == false, or during recovery replay).
  void schedule_maintenance();
  void worker_loop();
  void stop_worker();

  /// Upgrades un-finalized segments of `lane` with their bloom summary.
  void finalize_blooms(Lane& lane);
  /// Merges one eligible run in `lane`; false when nothing is eligible.
  bool try_compact_lane(Lane& lane);
  /// Swaps `count` entries starting at the entry with id `first_id` for
  /// `replacement` (empty = plain removal) in the published list.
  void splice_segments(Lane& lane, std::uint64_t first_id, std::size_t count,
                       std::shared_ptr<const ImmutableSegment> replacement);
  void publish_tier_gauges();

  storage::SnapshotFile build_snapshot_locked() const;
  bool restore_snapshot(const storage::SnapshotFile& snapshot);
  std::size_t count_live() const;

  FastConfig config_;
  /// config_ with the cuckoo store pre-sized for one seal interval, so a
  /// replacement memtable does not re-pay proactive doubling every cycle.
  FastConfig mem_config_;
  std::unique_ptr<pipeline::Summarizer> summarizer_;
  std::unique_ptr<pipeline::SemanticAggregator> aggregator_;
  std::size_t tables_ = 0;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::atomic<std::size_t> live_{0};
  std::atomic<std::uint64_t> next_segment_id_{1};
  // Memtable content tallies (signed: deltas are applied under lane locks
  // but read lock-free by gauges). Segment tallies come from the published
  // immutable lists instead.
  std::atomic<std::int64_t> mem_entries_{0};
  std::atomic<std::int64_t> mem_tombstones_{0};

  std::shared_ptr<util::MetricsRegistry> metrics_;
  TierMetrics m_;

  // Snapshot + WAL; null for a purely in-memory tier. Lock order is
  // lane.mem_mutex -> the log's own mutex; the snapshot path takes every
  // lane lock (in index order) first, which also quiesces appends.
  std::unique_ptr<storage::DurableLog> log_;

  // Background maintenance. compaction_mutex_ serializes whole passes
  // (worker vs explicit compact_once); work_mutex_ guards the wake flags.
  std::mutex compaction_mutex_;
  mutable std::mutex work_mutex_;
  mutable std::condition_variable work_cv_;
  mutable std::condition_variable idle_cv_;
  bool work_pending_ = false;
  bool worker_busy_ = false;
  bool stop_ = false;
  std::thread worker_;
};

}  // namespace fast::core

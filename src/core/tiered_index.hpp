// TieredIndex — LSM-style layered assembly of the FAST pipeline
// (DESIGN.md §3f).
//
// Layout: ids are hash-partitioned across a few independent LANES. Each
// lane holds one small mutable memtable — a core::IndexLayer, the same
// class the flat index is made of — guarded by its own lock, plus a
// newest-first list of ImmutableSegments (frozen layers) published as one
// shared_ptr that is swapped whole. Inserts derive bucket keys
// OUTSIDE any lock, then take only their lane's mutex for the bounded
// placement work; once a memtable reaches tier.seal_threshold mentions it
// is sealed — an O(1) move into a frozen segment — off the hot path.
// Queries take each lane's lock in shared mode for the memtable probe and
// scoring and for the shadow decisions; segment candidates are scored off
// a pinned copy of the list pointer (taken under a mutex held only for
// that copy), and a per-segment bloom summary skips segments that cannot
// contain any probe key. Every layer ranks its candidates straight off its
// own signature slab, as the flat index does. Lane locks go through
// Backend's traced helper, so both layouts report the same lock.* spans,
// wait histograms and index.*_locks counters. A background
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
// Layers cache no bucket keys: removal, bloom finalization and compaction
// re-derive an entry's keys from its slab slot through Backend::derive_keys.
// The shared front end (FE+SM, SA key derivation, the query finish and the
// instruments) lives in core::Backend; this class supplies placement,
// candidate gathering and its snapshot image.
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
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "core/index_layer.hpp"
#include "core/segment.hpp"

namespace fast::core {

class TieredIndex final : public Backend {
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

  std::size_t lane_count() const noexcept { return lanes_.size(); }
  std::size_t segment_count() const;
  /// Tombstones still pending compaction (memtables + segments).
  std::size_t tombstone_count() const;

  /// Live images (inserted and not erased), across all layers.
  std::size_t size() const override {
    return live_.load(std::memory_order_relaxed);
  }
  std::size_t index_bytes() const override;
  /// Stored signature of a live id (copy: the owning layer may be compacted
  /// away at any time); nullopt when absent or tombstoned.
  std::optional<hash::SparseSignature> signature_of(
      std::uint64_t id) const override;
  /// Honors shadowing: the newest layer mentioning an id owns it.
  void for_each_live(
      const std::function<void(std::uint64_t, const hash::SparseSignature&)>&
          fn) const override;
  storage::Status save_snapshot() override;

  // --- Maintenance (tests / benches) ---
  /// Seals every non-empty memtable regardless of threshold.
  void seal_active();
  /// One synchronous maintenance pass: finalizes segment blooms, then
  /// merges every eligible run. Returns true when anything was merged.
  /// Safe to call concurrently with the background worker (serialized).
  bool compact_once();
  /// Blocks until the background worker has drained its queue.
  void wait_idle() const;

 protected:
  void place(std::span<Placement> batch) override;
  std::size_t remove(std::span<const std::uint64_t> ids) override;
  void gather(std::span<const std::uint64_t> keys,
              std::span<const std::vector<std::uint64_t>> probes,
              const hash::JaccardScorer& scorer, Gathered& out,
              util::TraceSpan& probe_span) const override;
  bool restore_snapshot(const storage::SnapshotFile& snapshot) override;

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
    IndexMutex mem_mutex;
    std::unique_ptr<IndexLayer> mem;
    /// Replaced under publish_mutex (seal prepend, bloom upgrade,
    /// compaction splice).
    SegmentListCell segments;
    std::mutex publish_mutex;
  };

  struct TierMetrics {
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
  /// One insert under its lane lock; true when it sealed the memtable.
  bool place_one(Placement& p);
  /// One erase under its lane lock: {erased, sealed}.
  std::pair<bool, bool> erase_one(std::uint64_t id);
  std::size_t lane_of(std::uint64_t id) const noexcept {
    return static_cast<std::size_t>((id * 0x9e3779b97f4a7c15ULL) >> 32) %
           lanes_.size();
  }

  /// Newest segment mention of `id` in the lane is a live signature.
  static bool segments_contain_live(const Lane& lane, std::uint64_t id);
  /// Removes live `id` from `layer` under keys re-derived from its summary.
  void evict(IndexLayer& layer, std::uint64_t id) const;
  /// Every live entry's home keys, re-derived from the layer's slab.
  std::vector<std::vector<std::uint64_t>> home_keys(
      const IndexLayer& layer) const;

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
  std::size_t count_live() const;

  /// config_ with the cuckoo store pre-sized for one seal interval, so a
  /// replacement memtable does not re-pay proactive doubling every cycle.
  FastConfig mem_config_;
  std::size_t tables_ = 0;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::atomic<std::size_t> live_{0};
  std::atomic<std::uint64_t> next_segment_id_{1};
  // Memtable content tallies (signed: deltas are applied under lane locks
  // but read lock-free by gauges). Segment tallies come from the published
  // immutable lists instead.
  std::atomic<std::int64_t> mem_entries_{0};
  std::atomic<std::int64_t> mem_tombstones_{0};

  TierMetrics tm_;

  // The WAL (Backend::log_) is appended under the lane lock. Lock order is
  // lane.mem_mutex -> the log's own mutex; the snapshot path takes every
  // lane lock (in index order) first, which also quiesces appends.

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

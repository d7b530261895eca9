// Thread-safe facade over the index for online operation: the cloud
// middleware ingests uploads continuously while serving queries. Two
// concurrency regimes live behind one interface, selected by
// config.tier.enabled:
//
//  - Flat (default): one FastIndex under a shared_mutex. Readers (queries)
//    share it; writers (insert/erase) take it exclusively. Summarization —
//    the expensive feature-extraction step — runs outside the lock, and the
//    batch paths take the lock exactly once per batch.
//  - Tiered: a TieredIndex, which synchronizes internally (per-lane memtable
//    locks, lock-free segment reads, background compaction). The facade
//    adds NO lock of its own — writers in different lanes and all queries
//    proceed in parallel, which is where the multi-thread ingest speedup
//    comes from (bench/fig5_insertion --churn measures it).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <vector>

#include "core/fast_index.hpp"
#include "core/tiered_index.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace fast::core {

class ConcurrentFastIndex {
 public:
  /// `batch_threads` workers for the batch FE+SM fan-out (0 = hardware
  /// concurrency); the pool is created lazily on the first batch call.
  /// config.tier.enabled picks the flat or tiered regime.
  ConcurrentFastIndex(FastConfig config, vision::PcaModel pca,
                      std::size_t batch_threads = 0)
      : batch_threads_(batch_threads) {
    if (config.tier.enabled) {
      tiered_ =
          std::make_unique<TieredIndex>(std::move(config), std::move(pca));
    } else {
      flat_.emplace(std::move(config), std::move(pca));
    }
    init_facade_metrics();
  }

  /// Wraps an already-built flat index (e.g., one recovered from disk).
  explicit ConcurrentFastIndex(FastIndex index, std::size_t batch_threads = 0)
      : flat_(std::move(index)), batch_threads_(batch_threads) {
    init_facade_metrics();
  }

  /// Wraps an already-built tiered index.
  explicit ConcurrentFastIndex(std::unique_ptr<TieredIndex> tiered,
                               std::size_t batch_threads = 0)
      : tiered_(std::move(tiered)), batch_threads_(batch_threads) {
    init_facade_metrics();
  }

  /// Durable concurrent index: recovers (or initializes) state in opts.dir
  /// and wraps it, dispatching on config.tier.enabled. Returns a pointer
  /// because the facade holds a mutex and cannot move.
  static storage::StatusOr<std::unique_ptr<ConcurrentFastIndex>>
  open_or_recover(FastConfig config, vision::PcaModel pca,
                  const DurabilityOptions& opts, RecoveryStats* stats = nullptr,
                  std::size_t batch_threads = 0) {
    if (config.tier.enabled) {
      auto tiered = TieredIndex::open_or_recover(std::move(config),
                                                 std::move(pca), opts, stats);
      if (!tiered.ok()) return tiered.status();
      return std::make_unique<ConcurrentFastIndex>(
          std::move(tiered).value(), batch_threads);
    }
    auto index = FastIndex::open_or_recover(std::move(config), std::move(pca),
                                            opts, stats);
    if (!index.ok()) return index.status();
    return std::make_unique<ConcurrentFastIndex>(std::move(index).value(),
                                                 batch_threads);
  }

  bool is_tiered() const noexcept { return tiered_ != nullptr; }

  std::size_t size() const {
    if (tiered_) return tiered_->size();
    std::shared_lock lock(mutex_);
    reader_locks_->add();
    return flat_->size();
  }

  /// Extraction + summarization without the lock, placement under it.
  /// Charges the same frontend cost as FastIndex::insert (the original
  /// concurrent path silently dropped the FE + Bloom-hash charge).
  InsertResult insert(std::uint64_t id, const img::Image& image) {
    util::TraceSpan span("concurrent.insert");
    if (tiered_) return tiered_->insert(id, image);
    const hash::SparseSignature sig = flat_->summarize(image);
    const sim::SimClock frontend = flat_->frontend_insert_cost();
    std::unique_lock lock = writer_lock();
    InsertResult result = flat_->insert_signature(id, sig);
    result.cost.merge(frontend);
    return result;
  }

  InsertResult insert_signature(std::uint64_t id,
                                const hash::SparseSignature& signature) {
    util::TraceSpan span("concurrent.insert");
    if (tiered_) return tiered_->insert_signature(id, signature);
    std::unique_lock lock = writer_lock();
    return flat_->insert_signature(id, signature);
  }

  /// Batch ingest: FE+SM for all items runs on the pool with no lock held,
  /// then every placement happens under a single writer-lock acquisition —
  /// one lock round-trip per batch instead of per image. Per-item costs
  /// match insert()'s accounting. (Tiered: placements take only per-lane
  /// memtable locks, so batches from different threads interleave.)
  std::vector<InsertResult> insert_batch(std::span<const BatchImage> items) {
    util::TraceSpan span("concurrent.insert_batch");
    span.attr("items", static_cast<double>(items.size()));
    insert_batch_size_->observe(static_cast<double>(items.size()));
    if (tiered_) return tiered_->insert_batch(items, &pool());
    std::vector<const img::Image*> images(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) images[i] = items[i].image;
    std::vector<hash::SparseSignature> sigs(items.size());
    pool().parallel_for(items.size(), [&](std::size_t i) {
      sigs[i] = flat_->summarize(*images[i]);
    });
    const sim::SimClock frontend = flat_->frontend_insert_cost();

    std::unique_lock lock = writer_lock();
    std::vector<InsertResult> results;
    results.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      InsertResult result = flat_->insert_signature(items[i].id, sigs[i]);
      result.cost.merge(frontend);
      results.push_back(std::move(result));
    }
    return results;
  }

  bool erase(std::uint64_t id) {
    util::TraceSpan span("concurrent.erase");
    if (tiered_) return tiered_->erase(id);
    std::unique_lock lock = writer_lock();
    return flat_->erase(id);
  }

  /// Batch erase, the write-side twin of insert_batch: one writer-lock
  /// acquisition covers every eviction (flat), or per-lane locking lets
  /// erases from different threads interleave (tiered). Skips unknown ids;
  /// returns the number actually erased.
  std::size_t erase_batch(std::span<const std::uint64_t> ids) {
    util::TraceSpan span("concurrent.erase_batch");
    span.attr("items", static_cast<double>(ids.size()));
    erase_batch_size_->observe(static_cast<double>(ids.size()));
    if (tiered_) return tiered_->erase_batch(ids);
    std::unique_lock lock = writer_lock();
    std::size_t erased = 0;
    for (const std::uint64_t id : ids) {
      if (flat_->erase(id)) ++erased;
    }
    return erased;
  }

  /// Summarization outside the lock, probe/rank under it; identical cost
  /// accounting to FastIndex::query (FE + Bloom hash ops + FE task chunks).
  QueryResult query(const img::Image& image, std::size_t k) const {
    util::TraceSpan span("concurrent.query");
    if (tiered_) return tiered_->query(image, k);
    const hash::SparseSignature sig = flat_->summarize(image);
    std::shared_lock lock = reader_lock();
    return flat_->query_summarized(sig, k);
  }

  QueryResult query_signature(const hash::SparseSignature& signature,
                              std::size_t k) const {
    util::TraceSpan span("concurrent.query");
    if (tiered_) return tiered_->query_signature(signature, k);
    std::shared_lock lock = reader_lock();
    return flat_->query_signature(signature, k);
  }

  /// Batch query: FE+SM on the pool without the lock, then all probe/rank
  /// work under one shared (reader) lock acquisition.
  std::vector<QueryResult> query_batch(
      std::span<const img::Image* const> images, std::size_t k) const {
    util::TraceSpan span("concurrent.query_batch");
    span.attr("items", static_cast<double>(images.size()));
    query_batch_size_->observe(static_cast<double>(images.size()));
    if (tiered_) return tiered_->query_batch(images, k, &pool());
    std::vector<hash::SparseSignature> sigs(images.size());
    pool().parallel_for(images.size(), [&](std::size_t i) {
      sigs[i] = flat_->summarize(*images[i]);
    });

    std::shared_lock lock = reader_lock();
    std::vector<QueryResult> results;
    results.reserve(images.size());
    for (const auto& sig : sigs) {
      results.push_back(flat_->query_summarized(sig, k));
    }
    return results;
  }

  /// Writer-lock acquisitions so far (batch-amortization observability).
  /// Always 0 in tiered mode: there is no facade-wide writer lock to count.
  std::size_t writer_lock_count() const noexcept {
    return writer_locks_->value();
  }
  /// Reader (shared) lock acquisitions so far.
  std::size_t reader_lock_count() const noexcept {
    return reader_locks_->value();
  }

  /// The shared per-stage registry (same instance as the inner index's).
  util::MetricsRegistry& metrics() const noexcept {
    return tiered_ ? tiered_->metrics() : flat_->metrics();
  }

  /// Snapshot accessors (consistent under the shared lock).
  std::size_t index_bytes() const {
    if (tiered_) return tiered_->index_bytes();
    std::shared_lock lock(mutex_);
    reader_locks_->add();
    return flat_->index_bytes();
  }

  /// Snapshot + WAL rotation. Flat: under the writer lock, so the image
  /// captures a point between mutations and no append races the rotation.
  /// Tiered: TieredIndex quiesces its own lanes.
  storage::Status save_snapshot() {
    if (tiered_) return tiered_->save_snapshot();
    std::unique_lock lock = writer_lock();
    return flat_->save_snapshot();
  }

  /// The wrapped flat index; callers must not mutate it concurrently.
  const FastIndex& unsafe_inner() const {
    FAST_CHECK_MSG(flat_.has_value(), "unsafe_inner() on a tiered facade");
    return *flat_;
  }

  /// The wrapped tiered index (nullptr in flat mode). TieredIndex is
  /// internally synchronized, so this accessor is safe to use live.
  TieredIndex* tiered() const noexcept { return tiered_.get(); }

 private:
  void init_facade_metrics() {
    util::MetricsRegistry& r = metrics();
    writer_locks_ = &r.counter("concurrent.writer_locks");
    reader_locks_ = &r.counter("concurrent.reader_locks");
    insert_batch_size_ = &r.count_histogram("concurrent.insert_batch_size");
    query_batch_size_ = &r.count_histogram("concurrent.query_batch_size");
    erase_batch_size_ = &r.count_histogram("concurrent.erase_batch_size");
  }

  /// Exclusive acquisition with the wait itself traced: under writer/reader
  /// contention the "lock.writer_wait" span is exactly the time this thread
  /// spent blocked, which is what the trace viewer needs to show convoy
  /// effects.
  std::unique_lock<std::shared_mutex> writer_lock() const {
    std::unique_lock lock(mutex_, std::defer_lock);
    {
      util::TraceSpan wait("lock.writer_wait");
      lock.lock();
    }
    writer_locks_->add();
    return lock;
  }

  std::shared_lock<std::shared_mutex> reader_lock() const {
    std::shared_lock lock(mutex_, std::defer_lock);
    {
      util::TraceSpan wait("lock.reader_wait");
      lock.lock();
    }
    reader_locks_->add();
    return lock;
  }

  util::ThreadPool& pool() const {
    std::call_once(pool_once_, [this] {
      pool_ = std::make_unique<util::ThreadPool>(batch_threads_);
    });
    return *pool_;
  }

  mutable std::shared_mutex mutex_;
  std::optional<FastIndex> flat_;
  std::unique_ptr<TieredIndex> tiered_;
  std::size_t batch_threads_;
  mutable std::once_flag pool_once_;
  mutable std::unique_ptr<util::ThreadPool> pool_;
  util::Counter* writer_locks_ = nullptr;
  util::Counter* reader_locks_ = nullptr;
  util::Histogram* insert_batch_size_ = nullptr;
  util::Histogram* query_batch_size_ = nullptr;
  util::Histogram* erase_batch_size_ = nullptr;
};

}  // namespace fast::core

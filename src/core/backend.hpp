// core::Backend — the one contract every FAST index implements (DESIGN.md
// §3p). A backend is one node's FE→SM→SA→CHS pipeline behind an internally
// synchronized interface: any thread may insert, erase and query at any
// time, and callers add no lock of their own.
//
// The base class owns the front end both index layouts share, written
// once: the config, the Summarizer (FE+SM), the SemanticAggregator (SA),
// the metrics registry with one instrument set, the image and batch entry
// points, the timed SA key derivation, the query finish (top-k,
// instruments, QueryProfile), and the traced lock helper. A derived index
// supplies only what is its own: where a placement lands (place/remove),
// how a query's probe keys become scored candidates (gather), and its
// snapshot image. Both layouts are built of core::IndexLayer: FastIndex is
// one layer under one single-writer lock; TieredIndex is lanes of memtable
// layers under per-lane locks plus frozen segment layers.
//
// Results report the work a call did and never price it: core::sim_cost
// turns that work into the simulated platform's time for the figures.
//
// make_backend/open_backend pick the layout from config.tier.enabled; they
// are the only place that choice is made. QueryEngine and ShardedFastIndex
// hold Backends and never ask which layout they got.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/durability.hpp"
#include "core/pipeline/semantic_aggregator.hpp"
#include "core/pipeline/summarizer.hpp"
#include "core/result.hpp"
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
class TraceSpan;
}  // namespace fast::util

namespace fast::core {

/// One item of a batched image ingest: the image stays owned by the caller.
struct BatchImage {
  std::uint64_t id = 0;
  const img::Image* image = nullptr;
};

/// One signature write: a precomputed signature and its id (the shape
/// mobile clients ship — the server protocol carries exactly this).
struct EngineWrite {
  std::uint64_t id = 0;
  hash::SparseSignature signature;
};

/// An index lock: a shared_mutex that Backend::writer_lock/reader_lock
/// take with the wait traced and counted. A move leaves it behind: the
/// moved-to index starts with a fresh, unlocked one.
class IndexMutex {
 public:
  IndexMutex() = default;
  IndexMutex(IndexMutex&&) noexcept {}
  IndexMutex& operator=(IndexMutex&&) noexcept { return *this; }

 private:
  friend class Backend;
  mutable std::shared_mutex mutex_;
};

class Backend {
 public:
  virtual ~Backend();
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  const FastConfig& config() const noexcept { return config_; }

  /// The SA stage; core::sim_cost reads its modeled op counts.
  const pipeline::SemanticAggregator& aggregator() const noexcept {
    return *aggregator_;
  }

  /// Per-stage observability (metric names in DESIGN.md §3b). The shared
  /// scaffold registers the same instruments in every backend; a layout
  /// adds its own next to them. Thread-safe to read and update.
  util::MetricsRegistry& metrics() const noexcept { return *metrics_; }

  // --- FE + SM ---

  /// Runs feature extraction + Bloom summarization for one image.
  hash::SparseSignature summarize(const img::Image& image) const;

  /// Tunes the LSH input scale from sample queries against a corpus sample
  /// (the paper's R-selection procedure, §IV-A2): the median query-to-
  /// nearest-neighbor distance is mapped to calibrate_target * omega. Must
  /// be called before the first insert; a no-op when either sample is
  /// empty. The O(queries * corpus) brute-force NN sweep fans across `pool`
  /// when provided; results are identical to the sequential path.
  void calibrate_scale(std::span<const hash::SparseSignature> sample_queries,
                       std::span<const hash::SparseSignature> corpus_sample,
                       util::ThreadPool* pool = nullptr);

  // --- Writes ---

  /// Full pipeline insert: extract, summarize, aggregate, store.
  InsertResult insert(std::uint64_t id, const img::Image& image);

  /// Inserts a precomputed signature (e.g., shipped by a mobile client).
  /// A known id is replaced. WAL-logged before it applies on a durable
  /// backend; throws storage::IoError when the log refuses the record.
  InsertResult insert_signature(std::uint64_t id,
                                const hash::SparseSignature& signature);

  /// Batch ingest: FE+SM runs for all items first — fanned across `pool`
  /// when provided, with no lock held — then placement proceeds in item
  /// order, so the final state and per-item results match sequential
  /// insert() calls.
  std::vector<InsertResult> insert_batch(std::span<const BatchImage> items,
                                         util::ThreadPool* pool = nullptr);

  /// Signature batch: SA keys for every item are derived first, then the
  /// placements apply in order as one unit (one writer-lock acquisition on
  /// the flat layout). results[i] matches insert_signature(writes[i]).
  std::vector<InsertResult> insert_signatures(
      std::span<const EngineWrite> writes);

  /// Removes an image: its id leaves every correlation group it joined and
  /// its signature is dropped. Returns false when the id is unknown (an
  /// unknown id is not logged).
  bool erase(std::uint64_t id);

  /// Erases each id in order as one unit, skipping unknown ids; returns
  /// the number erased.
  std::size_t erase_batch(std::span<const std::uint64_t> ids);

  // --- Queries ---

  /// Full pipeline query: returns the top-k most similar images.
  QueryResult query(const img::Image& image, std::size_t k) const;

  /// Query with a precomputed signature: SA keys, then the backend's
  /// candidate gathering, then the shared top-k finish.
  QueryResult query_signature(const hash::SparseSignature& signature,
                              std::size_t k) const;

  /// Batch query: complete queries (FE+SM+probe+rank) fan across `pool`
  /// when provided. Results are identical to per-item query() calls.
  std::vector<QueryResult> query_batch(
      std::span<const img::Image* const> images, std::size_t k,
      util::ThreadPool* pool = nullptr) const;

  // --- State ---

  /// Live images (inserted and not erased).
  virtual std::size_t size() const = 0;

  /// Total in-memory bytes of the index (the FAST column of Table IV).
  virtual std::size_t index_bytes() const = 0;

  /// The stored signature of a live id (a copy), or nullopt.
  virtual std::optional<hash::SparseSignature> signature_of(
      std::uint64_t id) const = 0;

  /// Visits every live (id, signature) pair in unspecified order. Used to
  /// rebuild derived state (routing summaries) after recovery; not a hot
  /// path.
  virtual void for_each_live(
      const std::function<void(std::uint64_t, const hash::SparseSignature&)>&
          fn) const = 0;

  // --- Durability (snapshot + WAL; see core/durability.hpp) ---

  /// True when mutations are WAL-logged (the backend came from
  /// open_backend or an open_or_recover).
  bool durable() const noexcept { return log_ != nullptr; }

  /// Sequence number of the last applied mutation (0 before any).
  std::uint64_t last_seq() const {
    return log_ != nullptr ? log_->last_seq() : 0;
  }

  /// Forces an fsync of WAL records buffered by a wal_sync_every > 1
  /// cadence, so every acknowledged mutation is durable. No-op when
  /// already synced or non-durable.
  storage::Status sync_wal();

  /// Writes a full snapshot at the current sequence number and rotates the
  /// WAL, quiescing writers for the duration. Requires a durable backend.
  virtual storage::Status save_snapshot() = 0;

 protected:
  /// One insert as the scaffold hands it to place(): its SA home keys are
  /// already derived (outside any lock).
  struct Placement {
    std::uint64_t id = 0;
    const hash::SparseSignature* signature = nullptr;
    std::vector<std::uint64_t> keys;
    InsertResult result;
  };

  /// A query's candidates as gather() hands them back: every live
  /// candidate scored against the query (any order), plus the probe work.
  struct Gathered {
    std::vector<ScoredId> scored;
    std::vector<std::size_t> table_slot_reads;  ///< per SA table
    std::size_t bucket_probes = 0;
    std::size_t fingerprint_false_hits = 0;
    double score_s = 0;  ///< wall time spent scoring, charged to rank
  };

  /// Instruments of the shared scaffold, cached so hot paths (queries
  /// racing on many threads) update them with relaxed atomics only.
  struct Instruments {
    util::Counter* fe_sm_images = nullptr;
    util::Histogram* fe_sm_summarize_s = nullptr;
    util::Counter* inserts = nullptr;
    util::Counter* erases = nullptr;
    util::Counter* queries = nullptr;
    util::Histogram* query_wall_s = nullptr;
    util::Histogram* insert_batch_size = nullptr;
    util::Histogram* query_batch_size = nullptr;
    util::Histogram* erase_batch_size = nullptr;
    util::Counter* sa_keys_derived = nullptr;
    // Native wall time of one aggregator keys() call: what the real
    // (sparse) kernel costs, not the paper's dense flop model.
    util::Histogram* sa_keys_wall_s = nullptr;
    util::Histogram* sa_probe_keys = nullptr;
    // Rank per query: the sum of building the query bitmap (scorer),
    // scoring the candidates (score) and top-k selection (topk).
    util::Histogram* rank_wall_s = nullptr;
    util::Histogram* rank_scorer_s = nullptr;
    util::Histogram* rank_score_s = nullptr;
    util::Histogram* rank_topk_s = nullptr;
    util::Counter* chs_slot_reads = nullptr;
    util::Counter* chs_fingerprint_false_hits = nullptr;
    util::Histogram* chs_bucket_probes = nullptr;
    util::Histogram* chs_candidates = nullptr;
    util::Gauge* index_size = nullptr;
    util::Counter* writer_locks = nullptr;
    util::Counter* reader_locks = nullptr;
    util::Histogram* writer_wait_s = nullptr;
    util::Histogram* reader_wait_s = nullptr;
  };

  /// Builds the shared front end and registers the scaffold instruments
  /// (plus the durability ones) in a fresh registry.
  Backend(FastConfig config, std::unique_ptr<pipeline::Summarizer> summarizer,
          std::unique_ptr<pipeline::SemanticAggregator> aggregator);
  /// Moves carry the registry pointer, so cached instruments stay valid.
  Backend(Backend&&) noexcept;
  Backend& operator=(Backend&&) noexcept;

  /// Applies `batch` in order as one unit: logs each record before its
  /// in-memory change on a durable backend and fills its result's
  /// placement work and rehash events.
  virtual void place(std::span<Placement> batch) = 0;

  /// Erases `ids` in order as one unit, logging each known id; returns how
  /// many were live.
  virtual std::size_t remove(std::span<const std::uint64_t> ids) = 0;

  /// Probes every table's home and probe keys and scores the live
  /// candidates with `scorer`. Fills out.table_slot_reads (pre-sized to
  /// keys.size()); may attach layout-specific attributes to `probe_span`.
  virtual void gather(std::span<const std::uint64_t> keys,
                      std::span<const std::vector<std::uint64_t>> probes,
                      const hash::JaccardScorer& scorer, Gathered& out,
                      util::TraceSpan& probe_span) const = 0;

  /// Restores state from a validated snapshot; false = undecodable content
  /// with the index left untouched (recovery falls back to an older one).
  virtual bool restore_snapshot(const storage::SnapshotFile& snapshot) = 0;

  /// Takes `mutex` exclusively (writer) or shared (reader). The wait is a
  /// lock.writer_wait / lock.reader_wait span — under contention exactly
  /// the time this thread spent blocked — timed into lock.writer_wait_s /
  /// lock.reader_wait_s, and the acquisition is counted in
  /// index.writer_locks / index.reader_locks.
  std::unique_lock<std::shared_mutex> writer_lock(
      const IndexMutex& mutex) const;
  std::shared_lock<std::shared_mutex> reader_lock(
      const IndexMutex& mutex) const;

  /// SA key derivation under the "sa.keys" span, timed into sa.keys_wall_s.
  /// Reads only the aggregator, so callers run it outside their locks.
  std::vector<std::uint64_t> derive_keys(
      const hash::SparseSignature& signature,
      std::vector<std::vector<std::uint64_t>>* probes,
      double* elapsed_s = nullptr) const;

  /// Recovers opts.dir into this (empty) backend — newest intact snapshot
  /// through restore_snapshot, WAL tail replayed through insert_signature
  /// and erase — and attaches the log, so later mutations are logged.
  storage::Status open_log(const DurabilityOptions& opts,
                           RecoveryStats* stats);

  FastConfig config_;
  std::unique_ptr<pipeline::Summarizer> summarizer_;
  std::unique_ptr<pipeline::SemanticAggregator> aggregator_;
  // shared_ptr keeps the registry (which holds mutexes/atomics and cannot
  // move) stable across moves, so the cached instrument pointers stay valid.
  std::shared_ptr<util::MetricsRegistry> metrics_;
  Instruments m_;
  // Snapshot + WAL; null for a purely in-memory backend.
  std::unique_ptr<storage::DurableLog> log_;

 private:
  /// Derives home keys for one insert.
  void prepare(Placement& p, std::uint64_t id,
               const hash::SparseSignature& signature) const;
  /// Runs FE+SM for `images`, fanned across `pool` when provided.
  std::vector<hash::SparseSignature> summarize_batch(
      std::span<const img::Image* const> images, util::ThreadPool* pool) const;
};

/// An empty in-memory backend: TieredIndex when config.tier.enabled,
/// FastIndex otherwise.
std::unique_ptr<Backend> make_backend(FastConfig config, vision::PcaModel pca);

/// A durable backend recovered from (or initialized in) opts.dir, laid out
/// per config.tier.enabled. Same error contract as
/// FastIndex::open_or_recover.
storage::StatusOr<std::unique_ptr<Backend>> open_backend(
    FastConfig config, vision::PcaModel pca, const DurabilityOptions& opts,
    RecoveryStats* stats = nullptr);

}  // namespace fast::core

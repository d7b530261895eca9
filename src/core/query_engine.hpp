// Parallel query execution — and the mutating facade the network server
// routes through — over one core::Backend (flat or tiered; the engine never
// asks which). A thread pool fans independent queries (and their probe
// work) across host cores. The pool starts on the first run_batch, so an
// engine that only serves single queries (fast_server) starts no thread.
// The engine reports results and native wall time only; the figures'
// simulated latencies come from core::sim_cost and sim::ClusterModel,
// called by the benches themselves.
//
// Write facade: insert/erase passthroughs route to the backend, preserving
// WAL durability; engine-routed writes are bit-identical to calling the
// backend directly (tests/server_test.cpp compares persisted images). The
// backend synchronizes internally, so the engine adds no lock: a served
// query is one call into the backend and one shared-lock acquisition on
// the flat layout.
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/backend.hpp"
#include "core/fast_index.hpp"
#include "core/tiered_index.hpp"
#include "util/thread_pool.hpp"

namespace fast::core {

struct BatchReport {
  std::vector<QueryResult> results;
  double native_wall_s = 0;  ///< host wall-clock for the whole batch
};

class QueryEngine {
 public:
  /// Serves a caller-owned backend, which must outlive the engine.
  /// run_batch fans out over `threads` native worker threads (0 = hardware
  /// concurrency), started on its first call.
  explicit QueryEngine(Backend& backend, std::size_t threads = 0);

  /// Serves (and owns) `backend`.
  explicit QueryEngine(std::unique_ptr<Backend> backend,
                       std::size_t threads = 0);

  /// Serves a durable backend recovered from (or initialized in) opts.dir,
  /// flat or tiered per config.tier.enabled (core::open_backend).
  static storage::StatusOr<std::unique_ptr<QueryEngine>> open(
      FastConfig config, vision::PcaModel pca, const DurabilityOptions& opts,
      RecoveryStats* stats = nullptr, std::size_t threads = 0);

  Backend& backend() const noexcept { return backend_; }

  /// The tiered backend, for its maintenance surface (wait_idle,
  /// segment_count, ...). FAST_CHECKs that the backend is tiered.
  const TieredIndex& tiered() const;

  /// Runs a batch of top-`k` signature queries in parallel (starting the
  /// pool on the first call).
  BatchReport run_batch(std::span<const hash::SparseSignature> queries,
                        std::size_t k = 10);

  // --- Mutating facade ---

  /// Routes one signature insert through the backend; WAL-durable when the
  /// backend is.
  InsertResult insert_signature(std::uint64_t id,
                                const hash::SparseSignature& signature) {
    return backend_.insert_signature(id, signature);
  }
  /// Batch variant: items apply in order as one unit; per-item results
  /// match insert_signature().
  std::vector<InsertResult> insert_batch(std::span<const EngineWrite> items) {
    return backend_.insert_signatures(items);
  }
  /// Erases one id; false when unknown.
  bool erase(std::uint64_t id) { return backend_.erase(id); }
  /// Erases each id (skipping unknowns); returns the number erased.
  std::size_t erase_batch(std::span<const std::uint64_t> ids) {
    return backend_.erase_batch(ids);
  }

  /// One signature query through the backend — the server's unit of work
  /// (run_batch fans many across the pool). Safe to call concurrently
  /// with the mutating facade.
  QueryResult query_signature(const hash::SparseSignature& signature,
                              std::size_t k) const {
    return backend_.query_signature(signature, k);
  }

  /// Backend config (the server validates wire-signature geometry here).
  const FastConfig& config() const noexcept { return backend_.config(); }
  /// The backend's metrics registry; the server registers its instruments
  /// here so one scrape covers pipeline and serving metrics together.
  util::MetricsRegistry& metrics() const noexcept {
    return backend_.metrics();
  }

  /// Live images in the backend.
  std::size_t size() const { return backend_.size(); }
  /// True when backend mutations are WAL-logged.
  bool durable() const noexcept { return backend_.durable(); }
  /// Fsyncs buffered WAL records (group-commit tail); the server calls
  /// this after draining so every acked write is on disk before exit.
  storage::Status sync_wal() { return backend_.sync_wal(); }
  /// Snapshots the backend (requires a durable backend).
  storage::Status save_snapshot() { return backend_.save_snapshot(); }

 private:

  /// Set only when the engine owns its backend; declared first so it is
  /// destroyed last, after the pool's workers have stopped.
  std::unique_ptr<Backend> owned_;
  Backend& backend_;
  std::size_t threads_;
  std::once_flag pool_started_;
  std::unique_ptr<util::ThreadPool> pool_;
  util::Counter* batches_ = nullptr;
  util::Histogram* batch_size_ = nullptr;
  util::Histogram* batch_wall_s_ = nullptr;
};

}  // namespace fast::core

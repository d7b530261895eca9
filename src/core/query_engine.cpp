#include "core/query_engine.hpp"

#include "util/check.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace fast::core {

QueryEngine::QueryEngine(Backend& backend, std::size_t threads)
    : backend_(backend), threads_(threads) {
  util::MetricsRegistry& r = backend_.metrics();
  batches_ = &r.counter("engine.batches");
  batch_size_ = &r.count_histogram("engine.batch_size");
  batch_wall_s_ = &r.latency_histogram("engine.batch_native_wall_s");
}

QueryEngine::QueryEngine(std::unique_ptr<Backend> backend, std::size_t threads)
    : QueryEngine(*backend, threads) {
  owned_ = std::move(backend);
}

storage::StatusOr<std::unique_ptr<QueryEngine>> QueryEngine::open(
    FastConfig config, vision::PcaModel pca, const DurabilityOptions& opts,
    RecoveryStats* stats, std::size_t threads) {
  auto backend =
      open_backend(std::move(config), std::move(pca), opts, stats);
  if (!backend.ok()) return backend.status();
  return std::make_unique<QueryEngine>(std::move(backend).value(), threads);
}

const TieredIndex& QueryEngine::tiered() const {
  const auto* tiered = dynamic_cast<const TieredIndex*>(&backend_);
  FAST_CHECK_MSG(tiered != nullptr, "tiered() on a flat engine");
  return *tiered;
}

BatchReport QueryEngine::run_batch(
    std::span<const hash::SparseSignature> queries, std::size_t k) {
  util::TraceSpan span("engine.batch");
  span.attr("queries", static_cast<double>(queries.size()));
  BatchReport report;
  report.results.resize(queries.size());

  std::call_once(pool_started_, [this] {
    pool_ = std::make_unique<util::ThreadPool>(threads_);
  });
  util::WallTimer timer;
  pool_->parallel_for(queries.size(), [&](std::size_t i) {
    report.results[i] = backend_.query_signature(queries[i], k);
  });
  report.native_wall_s = timer.elapsed_seconds();

  batches_->add();
  batch_size_->observe(static_cast<double>(report.results.size()));
  batch_wall_s_->observe(report.native_wall_s);
  return report;
}

}  // namespace fast::core

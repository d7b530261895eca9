#include "core/query_engine.hpp"

#include "util/check.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace fast::core {

QueryEngine::QueryEngine(Backend& backend, std::size_t threads)
    : backend_(backend), pool_(threads) {
  util::MetricsRegistry& r = backend_.metrics();
  batches_ = &r.counter("engine.batches");
  batch_size_ = &r.count_histogram("engine.batch_size");
  batch_wall_s_ = &r.latency_histogram("engine.batch_native_wall_s");
  last_sim_mean_s_ = &r.gauge("engine.last_sim_mean_latency_s");
  last_sim_makespan_s_ = &r.gauge("engine.last_sim_makespan_s");
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

void QueryEngine::finish_report(BatchReport& report,
                                std::size_t sim_slots) const {
  std::size_t slots = sim_slots;
  if (slots == 0) {
    const FastConfig& c = backend_.config();
    slots = c.cost.nodes * c.cost.cores_per_node;
  }
  std::vector<double> costs;
  costs.reserve(report.results.size());
  for (const QueryResult& r : report.results) {
    costs.push_back(r.cost.elapsed_s());
  }
  report.sim_mean_latency_s = sim::ClusterModel::mean_completion(costs, slots);
  report.sim_makespan_s = sim::ClusterModel::makespan(costs, slots);

  batches_->add();
  batch_size_->observe(static_cast<double>(report.results.size()));
  batch_wall_s_->observe(report.native_wall_s);
  last_sim_mean_s_->set(report.sim_mean_latency_s);
  last_sim_makespan_s_->set(report.sim_makespan_s);
}

BatchReport QueryEngine::run_batch(
    std::span<const hash::SparseSignature> queries,
    const BatchOptions& options) {
  util::TraceSpan span("engine.batch");
  span.attr("queries", static_cast<double>(queries.size()));
  BatchReport report;
  report.results.resize(queries.size());

  util::WallTimer timer;
  pool_.parallel_for(queries.size(), [&](std::size_t i) {
    report.results[i] = backend_.query_signature(queries[i], options.top_k);
  });
  report.native_wall_s = timer.elapsed_seconds();

  finish_report(report, options.sim_slots);
  return report;
}

BatchReport QueryEngine::run_image_batch(
    std::span<const img::Image* const> images, const BatchOptions& options) {
  util::TraceSpan span("engine.batch");
  span.attr("queries", static_cast<double>(images.size()));
  BatchReport report;

  util::WallTimer timer;
  report.results = backend_.query_batch(images, options.top_k, &pool_);
  report.native_wall_s = timer.elapsed_seconds();

  finish_report(report, options.sim_slots);
  return report;
}

double QueryEngine::simulated_query_latency(const QueryResult& result,
                                            std::size_t cores) {
  if (result.parallel_tasks.empty()) {
    return result.cost.elapsed_s();
  }
  return sim::ClusterModel::makespan(result.parallel_tasks, cores);
}

}  // namespace fast::core

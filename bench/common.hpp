// Shared environment for the paper-reproduction benches: scaled datasets,
// a trained PCA-SIFT eigenspace, and ready-built instances of FAST and the
// three baselines. Every bench binary prints Table II-style header info so
// runs are self-describing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baseline/pca_sift_baseline.hpp"
#include "baseline/rnpe.hpp"
#include "baseline/sift_baseline.hpp"
#include "core/fast_index.hpp"
#include "core/sim_cost.hpp"
#include "util/metrics.hpp"
#include "vision/pca.hpp"
#include "vision/pca_sift.hpp"
#include "workload/dataset.hpp"
#include "workload/query_gen.hpp"

namespace fast::bench {

/// Scaling knobs, overridable from the command line: argv[1] = wuhan image
/// count, argv[2] = shanghai image count (keeping Table II's 21:39 ratio by
/// default), argv[3] = queries per experiment point.
///
/// from_args also consumes tracing flags before positional parsing:
/// `--trace` (sample every request) or `--trace=RATE` (e.g. --trace=0.01)
/// configure the global tracer, as do the FAST_TRACE* environment variables
/// (see util/trace.hpp); benches then emit results/<name>.trace.json via
/// dump_trace().
struct BenchScale {
  std::size_t wuhan_images = 160;
  std::size_t shanghai_images = 300;
  std::size_t queries = 30;

  static BenchScale from_args(int argc, char** argv);
};

/// One dataset plus everything the schemes need to run on it.
struct DatasetEnv {
  workload::Dataset dataset;
  vision::PcaModel pca;
  vision::PcaSiftConfig pca_cfg;
  std::vector<workload::DupQuery> queries;      ///< evaluation queries
  std::vector<workload::DupQuery> cal_queries;  ///< calibration-only queries
};

/// Generates a dataset, trains the eigenspace and draws query sets.
DatasetEnv make_dataset_env(const workload::DatasetSpec& spec,
                            std::size_t queries);

/// The four schemes of the paper's evaluation, built over one dataset.
struct Schemes {
  std::unique_ptr<baseline::SiftBaseline> sift;
  std::unique_ptr<baseline::PcaSiftBaseline> pca_sift;
  std::unique_ptr<baseline::Rnpe> rnpe;
  std::unique_ptr<core::FastIndex> fast;

  /// Accumulated simulated insert costs, split into the Fig. 3 components.
  sim::SimClock sift_build, pca_build, rnpe_build, fast_build;
};

struct SchemeConfig {
  std::size_t max_keypoints = 128;
  std::size_t cache_pages = 4096;
  sim::CostModel cost;
};

/// Builds (and populates) all four schemes over the dataset, accounting the
/// simulated construction costs.
Schemes build_schemes(const DatasetEnv& env, const SchemeConfig& cfg = {});

/// Builds only the FAST index (cheaper, for FAST-focused benches).
std::unique_ptr<core::FastIndex> build_fast_only(
    const DatasetEnv& env, const SchemeConfig& cfg = {},
    core::FastConfig base = {});

/// Prints a Table II-style banner describing the scaled dataset.
void print_dataset_banner(const workload::Dataset& dataset);

/// Writes `registry` as JSON to results/<name>_metrics.json (creating
/// results/ if needed; FAST_METRICS_DIR overrides the directory) and prints
/// the path, so every bench run leaves a machine-readable per-stage record
/// next to its tables. Failures are reported, not fatal.
void dump_metrics(const util::MetricsRegistry& registry,
                  const std::string& name);

/// Exports the global tracer's spans and query profiles for one bench
/// configuration — results/<name>.trace.json (Chrome trace_event format)
/// and results/<name>.query_profiles.json (FAST_TRACE_DIR, then
/// FAST_METRICS_DIR, override the directory) — then reset()s the tracer so
/// the next configuration in the same process starts from a clean buffer.
/// No-op (and no output) when tracing never recorded anything.
void dump_trace(const std::string& name);

/// True if `hits` contains `wanted` among its ids.
bool contains_id(const std::vector<core::ScoredId>& hits, std::uint64_t wanted);

}  // namespace fast::bench

// Fig. 4 — Average query latency vs. number of simultaneous requests
// (1000 ... 5000), for SIFT / PCA-SIFT / RNPE / FAST on both datasets.
//
// Native queries measure the per-request simulated platform cost for each
// scheme; a batch of B simultaneous requests is then scheduled FIFO onto
// the modeled cluster. Disk-bound schemes (SIFT, PCA-SIFT, RNPE) queue on
// the 256 per-node disks; FAST's in-memory probes queue on the 8192 cores.
// The reported value is the mean request completion time — the quantity
// Fig. 4 plots.
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "sim/cluster_model.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace fast::bench {
namespace {

/// Per-request cost samples for one scheme.
struct CostSamples {
  std::vector<double> seconds;

  double batch_mean_latency(std::size_t batch, std::size_t slots,
                            util::Rng& rng) const {
    std::vector<double> tasks(batch);
    for (double& t : tasks) {
      t = seconds[rng.uniform_u64(seconds.size())];
    }
    return sim::ClusterModel::mean_completion(tasks, slots);
  }
};

void run_dataset(const workload::DatasetSpec& spec, std::size_t queries,
                 double paper_images) {
  DatasetEnv env = make_dataset_env(spec, queries);
  print_dataset_banner(env.dataset);
  SchemeConfig cfg;
  Schemes schemes = build_schemes(env, cfg);

  CostSamples sift_c, pca_c, rnpe_c, fast_c;
  for (const auto& q : env.queries) {
    sift_c.seconds.push_back(
        schemes.sift->query(q.image, 10).cost.elapsed_s());
    pca_c.seconds.push_back(
        schemes.pca_sift->query(q.image, 10).cost.elapsed_s());
    const auto& src = env.dataset.photos[q.source];
    rnpe_c.seconds.push_back(schemes.rnpe
                                 ->query(src.geo_x, src.geo_y, q.landmark,
                                         q.view, 10)
                                 .cost.elapsed_s());
    const hash::SparseSignature sig = schemes.fast->summarize(q.image);
    const core::QueryResult fast = schemes.fast->query_signature(sig, 10);
    fast_c.seconds.push_back(
        core::sim_cost::query(*schemes.fast, sig, fast, /*from_image=*/true)
            .clock.elapsed_s());
  }

  const std::size_t disk_slots = cfg.cost.nodes;  // one disk per node
  const std::size_t core_slots = cfg.cost.nodes * cfg.cost.cores_per_node;

  util::Table table(
      {"requests", "SIFT", "PCA-SIFT", "RNPE", "FAST"});
  util::Rng rng(0xf19 ^ spec.seed);
  for (std::size_t batch = 1000; batch <= 5000; batch += 1000) {
    table.add_row(
        {std::to_string(batch),
         util::fmt_duration(sift_c.batch_mean_latency(batch, disk_slots, rng)),
         util::fmt_duration(pca_c.batch_mean_latency(batch, disk_slots, rng)),
         util::fmt_duration(rnpe_c.batch_mean_latency(batch, disk_slots, rng)),
         util::fmt_duration(
             fast_c.batch_mean_latency(batch, core_slots, rng))});
  }
  table.print("Fig. 4 — mean query latency vs simultaneous requests (" +
              env.dataset.spec.name + ", corpus as generated)");

  // Paper-scale extrapolation: the baselines scan their whole store per
  // query (SIFT/PCA-SIFT) or walk an O(log n) tree over it (RNPE), so
  // per-request cost grows with corpus size; FAST's flat addressing does
  // not. Scaling the measured costs to the paper's image counts reproduces
  // the figure's magnitudes (SIFT ~tens of minutes, FAST ~100 ms).
  const double corpus_scale =
      paper_images / static_cast<double>(env.dataset.photos.size());
  const double log_scale =
      std::log2(paper_images) /
      std::log2(static_cast<double>(env.dataset.photos.size()));
  auto scaled = [](const CostSamples& c, double factor) {
    CostSamples out;
    for (double s : c.seconds) out.seconds.push_back(s * factor);
    return out;
  };
  const CostSamples sift_p = scaled(sift_c, corpus_scale);
  const CostSamples pca_p = scaled(pca_c, corpus_scale);
  const CostSamples rnpe_p = scaled(rnpe_c, log_scale);
  util::Table paper_table({"requests", "SIFT", "PCA-SIFT", "RNPE", "FAST"});
  for (std::size_t batch = 1000; batch <= 5000; batch += 1000) {
    paper_table.add_row(
        {std::to_string(batch),
         util::fmt_duration(sift_p.batch_mean_latency(batch, disk_slots, rng)),
         util::fmt_duration(pca_p.batch_mean_latency(batch, disk_slots, rng)),
         util::fmt_duration(rnpe_p.batch_mean_latency(batch, disk_slots, rng)),
         util::fmt_duration(
             fast_c.batch_mean_latency(batch, core_slots, rng))});
  }
  paper_table.print(
      "Fig. 4 — extrapolated to the paper's corpus scale (" +
      env.dataset.spec.name + ")");

  // Per-stage counters/histograms behind the FAST column (FE/SM, SA, CHS).
  dump_metrics(schemes.fast->metrics(), "fig4_" + env.dataset.spec.name);
  // Per-request spans for the same runs (--trace / FAST_TRACE); exported and
  // reset per dataset so the two trace artifacts do not mix.
  dump_trace("fig4_" + env.dataset.spec.name);
}

}  // namespace
}  // namespace fast::bench

int main(int argc, char** argv) {
  using namespace fast;
  const bench::BenchScale scale = bench::BenchScale::from_args(argc, argv);
  std::printf("== bench fig4: concurrent query latency ==\n");
  bench::run_dataset(workload::DatasetSpec::wuhan(scale.wuhan_images),
                     scale.queries, 21e6);
  bench::run_dataset(workload::DatasetSpec::shanghai(scale.shanghai_images),
                     scale.queries, 39e6);
  return 0;
}

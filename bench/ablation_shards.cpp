// Ablation — shard count of the distributed index (DESIGN.md §5): insert
// routing cost, scatter-gather query latency and result fidelity as the
// cluster grows from 1 to 32 shards.
//
// `--skew` mode — Bloofi-style shard routing (DESIGN.md §3h) under a
// zipfian hot-query workload: the same query stream against a routing-off
// and a routing-on deployment, comparing shards-probed p50/p99, skip
// counts, and simulated latency. Results must be identical (summaries have
// no false negatives); exits nonzero otherwise or when routing never
// skips.
#include <cstdio>
#include <cstring>

#include "common.hpp"
#include "core/sharded_index.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace fast::bench {
namespace {

void run(const workload::DatasetSpec& spec, std::size_t queries) {
  DatasetEnv env = make_dataset_env(spec, queries);
  print_dataset_banner(env.dataset);

  // Reference single-node index for fidelity comparison.
  SchemeConfig scfg;
  std::unique_ptr<core::FastIndex> single = build_fast_only(env, scfg);
  std::vector<hash::SparseSignature> sigs;
  for (const auto& photo : env.dataset.photos) {
    sigs.push_back(single->summarize(photo.image));
    single->insert_signature(photo.id, sigs.back());
  }
  std::vector<hash::SparseSignature> qsigs;
  for (const auto& q : env.queries) {
    qsigs.push_back(single->summarize(q.image));
  }

  util::Table table({"shards", "query latency (sim)", "top-1 agreement",
                     "src recall@5"});
  for (std::size_t shards : {1, 2, 4, 8, 16, 32}) {
    core::FastConfig cfg;
    cfg.pca_sift = env.pca_cfg;
    core::ShardedFastIndex index(cfg, env.pca, shards, 2);
    for (std::size_t i = 0; i < env.dataset.photos.size(); ++i) {
      index.insert_signature(env.dataset.photos[i].id, sigs[i]);
    }
    util::OnlineStats latency;
    std::size_t agree = 0, recall = 0;
    for (std::size_t qi = 0; qi < qsigs.size(); ++qi) {
      const core::ShardedQueryResult sharded =
          index.query_signature(qsigs[qi], 5);
      const core::QueryResult ref = single->query_signature(qsigs[qi], 5);
      latency.add(sharded.cost.elapsed_s());
      if (!sharded.hits.empty() && !ref.hits.empty() &&
          sharded.hits.front().score == ref.hits.front().score) {
        ++agree;
      }
      recall += contains_id(sharded.hits, env.queries[qi].source);
    }
    const auto nq = static_cast<double>(qsigs.size());
    table.add_row({std::to_string(shards),
                   util::fmt_duration(latency.mean()),
                   util::fmt_percent(static_cast<double>(agree) / nq, 1),
                   util::fmt_percent(static_cast<double>(recall) / nq, 1)});
  }
  table.print("Ablation — distributed index shard count (" +
              env.dataset.spec.name + ")");
}

/// Zipfian hot-query stream against routing-off vs routing-on twins of the
/// same deployment. Returns false when results diverge or routing never
/// skips a shard.
bool run_skew(const workload::DatasetSpec& spec, std::size_t queries,
              std::size_t shards) {
  DatasetEnv env = make_dataset_env(spec, queries);
  print_dataset_banner(env.dataset);

  SchemeConfig scfg;
  std::unique_ptr<core::FastIndex> front = build_fast_only(env, scfg);
  std::vector<hash::SparseSignature> sigs;
  for (const auto& photo : env.dataset.photos) {
    sigs.push_back(front->summarize(photo.image));
  }
  std::vector<hash::SparseSignature> qsigs;
  for (const auto& q : env.queries) {
    qsigs.push_back(front->summarize(q.image));
  }

  core::FastConfig cfg_off;
  cfg_off.pca_sift = env.pca_cfg;
  core::FastConfig cfg_on = cfg_off;
  cfg_on.shard_routing_bits = 12;
  core::ShardedFastIndex off(cfg_off, env.pca, shards, 2);
  core::ShardedFastIndex on(cfg_on, env.pca, shards, 2);
  for (std::size_t i = 0; i < env.dataset.photos.size(); ++i) {
    off.insert_signature(env.dataset.photos[i].id, sigs[i]);
    on.insert_signature(env.dataset.photos[i].id, sigs[i]);
  }

  // Zipf-skewed query popularity: a few hot near-duplicate queries dominate,
  // so most scatters chase keys resident on a handful of shards.
  const std::size_t draws = qsigs.size() * 8;
  util::Rng rng(0x51e2);
  const util::ZipfDistribution zipf(qsigs.size(), 1.1);
  util::OnlineStats lat_off, lat_on;
  bool identical = true;
  for (std::size_t d = 0; d < draws; ++d) {
    const hash::SparseSignature& q = qsigs[zipf(rng) - 1];
    const core::ShardedQueryResult a = off.query_signature(q, 5);
    const core::ShardedQueryResult b = on.query_signature(q, 5);
    lat_off.add(a.cost.elapsed_s());
    lat_on.add(b.cost.elapsed_s());
    identical &= a.hits.size() == b.hits.size();
    for (std::size_t h = 0; identical && h < a.hits.size(); ++h) {
      identical &= a.hits[h].id == b.hits[h].id &&
                   a.hits[h].score == b.hits[h].score;
    }
  }

  const util::MetricsSnapshot m_off = off.metrics().snapshot();
  const util::MetricsSnapshot m_on = on.metrics().snapshot();
  const auto& probed_off = m_off.histograms.at("sharded.shards_probed");
  const auto& probed_on = m_on.histograms.at("sharded.shards_probed");
  const std::uint64_t skips = m_on.counters.at("shard.routing_skips");

  const auto fmt1 = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    return std::string(buf);
  };
  util::Table table({"routing", "shards probed p50", "p99", "skips",
                     "mean query latency (sim)"});
  table.add_row({"off", fmt1(probed_off.percentile(50)),
                 fmt1(probed_off.percentile(99)),
                 std::to_string(m_off.counters.at("shard.routing_skips")),
                 util::fmt_duration(lat_off.mean())});
  table.add_row({"on (bits=12)", fmt1(probed_on.percentile(50)),
                 fmt1(probed_on.percentile(99)), std::to_string(skips),
                 util::fmt_duration(lat_on.mean())});
  table.print("Ablation — shard routing under zipfian skew (" +
              std::to_string(shards) + " shards, " + std::to_string(draws) +
              " queries)");

  // The distributed win is message count: every skipped shard is one
  // scatter hop and one gather reply that never happen.
  const std::uint64_t net_off = m_off.counters.at("sharded.scatter_msgs") +
                                m_off.counters.at("sharded.gather_msgs");
  const std::uint64_t net_on = m_on.counters.at("sharded.scatter_msgs") +
                               m_on.counters.at("sharded.gather_msgs");
  const bool ok = identical && skips > 0 && net_on < net_off &&
                  probed_on.percentile(99) <= probed_off.percentile(99) &&
                  lat_on.mean() <= lat_off.mean();
  std::printf(
      "shard routing (skew): routing_skips=%llu, probed p99 %.1f -> %.1f, "
      "net msgs %llu -> %llu, latency %.3gs -> %.3gs, results=%s -> %s\n",
      static_cast<unsigned long long>(skips), probed_off.percentile(99),
      probed_on.percentile(99), static_cast<unsigned long long>(net_off),
      static_cast<unsigned long long>(net_on), lat_off.mean(), lat_on.mean(),
      identical ? "identical" : "DIVERGED", ok ? "OK" : "FAIL");
  return ok;
}

}  // namespace
}  // namespace fast::bench

int main(int argc, char** argv) {
  using namespace fast;
  bool skew = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--skew") == 0) skew = true;
  }
  const bench::BenchScale scale = bench::BenchScale::from_args(argc, argv);
  if (skew) {
    std::printf("== bench ablation_shards --skew: routing under skew ==\n");
    // A wide deployment (paper: 256 nodes) is where routing pays off: a
    // query's near-duplicate cluster is resident on a small fraction of the
    // shards, so most scatter hops are provably wasted.
    return bench::run_skew(workload::DatasetSpec::wuhan(scale.wuhan_images),
                           scale.queries, /*shards=*/32)
               ? 0
               : 1;
  }
  std::printf("== bench ablation_shards: distributed index ==\n");
  bench::run(workload::DatasetSpec::wuhan(scale.wuhan_images), scale.queries);
  return 0;
}

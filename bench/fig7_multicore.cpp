// Fig. 7 — Query latency vs. number of cores (1 ... 32): FAST's flat-
// structured addressing exposes independent probe/rank/extract work units
// that a multicore schedules freely, so per-query latency drops almost
// linearly with core count.
#include <chrono>
#include <cstdio>

#include "common.hpp"
#include "sim/cluster_model.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace fast::bench {
namespace {

void run_dataset(const workload::DatasetSpec& spec, std::size_t queries) {
  DatasetEnv env = make_dataset_env(spec, queries);
  print_dataset_banner(env.dataset);
  SchemeConfig cfg;
  std::unique_ptr<core::FastIndex> index = build_fast_only(env, cfg);
  for (const auto& photo : env.dataset.photos) {
    index->insert(photo.id, photo.image);
  }

  std::vector<core::sim_cost::QueryPrice> prices;
  for (const auto& q : env.queries) {
    const hash::SparseSignature sig = index->summarize(q.image);
    prices.push_back(core::sim_cost::query(
        *index, sig, index->query_signature(sig, 10), /*from_image=*/true));
  }

  util::Table table({"cores", "mean latency", "speedup vs 1 core"});
  double base = 0;
  for (std::size_t cores : {1, 2, 4, 8, 16, 32}) {
    util::OnlineStats lat;
    for (const auto& price : prices) {
      lat.add(sim::ClusterModel::makespan(price.tasks, cores));
    }
    if (cores == 1) base = lat.mean();
    table.add_row({std::to_string(cores), util::fmt_duration(lat.mean()),
                   util::fmt_double(base / lat.mean(), 2) + "x"});
  }
  table.print("Fig. 7 — multicore query latency (" + env.dataset.spec.name +
              ")");

  // Native counterpart: run the same query set through query_batch with a
  // real thread pool and report measured wall time per thread count.
  std::vector<const img::Image*> query_images;
  query_images.reserve(env.queries.size());
  for (const auto& q : env.queries) {
    query_images.push_back(&q.image);
  }
  using clock = std::chrono::steady_clock;
  util::Table native({"threads", "batch wall time", "queries/s",
                      "speedup vs 1 thread"});
  double base_s = 0;
  for (std::size_t threads : {1, 2, 4, 8}) {
    util::ThreadPool pool(threads);
    const auto t0 = clock::now();
    const auto batch = index->query_batch(query_images, 10, &pool);
    const double wall_s =
        std::chrono::duration<double>(clock::now() - t0).count();
    if (threads == 1) base_s = wall_s;
    native.add_row({std::to_string(threads), util::fmt_duration(wall_s),
                    util::fmt_double(static_cast<double>(batch.size()) / wall_s,
                                     1),
                    util::fmt_double(base_s / wall_s, 2) + "x"});
  }
  native.print("Fig. 7 addendum — native query_batch wall time (" +
               env.dataset.spec.name + ")");

  dump_metrics(index->metrics(), "fig7_" + env.dataset.spec.name);
  dump_trace("fig7_" + env.dataset.spec.name);
}

}  // namespace
}  // namespace fast::bench

int main(int argc, char** argv) {
  using namespace fast;
  const bench::BenchScale scale = bench::BenchScale::from_args(argc, argv);
  std::printf("== bench fig7: multicore parallel queries ==\n");
  bench::run_dataset(workload::DatasetSpec::wuhan(scale.wuhan_images),
                     scale.queries);
  bench::run_dataset(workload::DatasetSpec::shanghai(scale.shanghai_images),
                     scale.queries);
  return 0;
}

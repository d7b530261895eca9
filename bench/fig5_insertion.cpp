// Fig. 5 — Latency of inserting new images (10,000 ... 50,000), after an
// initial index build, for all four schemes on both datasets.
//
// The figure reports the *storage/indexing* latency of the new images (the
// paper notes all schemes share similar feature-extraction costs; FAST's
// advantage is its O(1) indexing). We measure per-insert simulated storage
// cost on a scaled stream of fresh images and report batch totals for the
// paper's batch sizes, scheduled across the cluster's nodes.
// `--churn` switches to the tiered-ingest companion experiment: a
// multi-thread ingest sweep (mutable flat index vs tiered memtable lanes)
// plus a sustained insert/erase churn phase with concurrent queries,
// checked for exactness against a flat ground-truth index rebuilt from the
// final live set. `--churn=smoke` runs a scaled-down slice for CI.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <thread>

#include "common.hpp"
#include "core/tiered_index.hpp"
#include "img/transform.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace fast::bench {
namespace {

void run_dataset(const workload::DatasetSpec& spec, std::size_t stream_n) {
  DatasetEnv env = make_dataset_env(spec, 4);
  print_dataset_banner(env.dataset);
  SchemeConfig cfg;
  Schemes schemes = build_schemes(env, cfg);

  // Fresh images to insert: new shots of existing views.
  util::Rng rng(0x1245 ^ spec.seed);
  img::PerturbParams params;
  baseline::ExtractCosts extract;
  const double fast_fe = schemes.fast->config().feature_extract_s;

  std::vector<double> sift_cost, pca_cost, rnpe_cost, fast_cost;
  const std::uint64_t base_id = env.dataset.photos.size();
  for (std::size_t i = 0; i < stream_n; ++i) {
    const auto& src =
        env.dataset.photos[rng.uniform_u64(env.dataset.photos.size())];
    const img::Image shot = img::make_near_duplicate(src.image, params, rng);
    const std::uint64_t id = base_id + i;
    // Storage-only cost: total insert cost minus the extraction constant.
    sift_cost.push_back(schemes.sift->insert(id, shot).cost.elapsed_s() -
                        extract.sift_s);
    pca_cost.push_back(schemes.pca_sift->insert(id, shot).cost.elapsed_s() -
                       extract.pca_sift_s);
    rnpe_cost.push_back(
        schemes.rnpe
            ->insert(id, src.geo_x + rng.gaussian(0, 0.2),
                     src.geo_y + rng.gaussian(0, 0.2), src.landmark, src.view)
            .cost.elapsed_s() -
        extract.rnpe_s);
    const hash::SparseSignature sig = schemes.fast->summarize(shot);
    const core::InsertResult placed = schemes.fast->insert_signature(id, sig);
    fast_cost.push_back(
        core::sim_cost::insert(*schemes.fast, sig, placed, /*from_image=*/true)
            .elapsed_s() -
        fast_fe);
  }

  auto mean = [](const std::vector<double>& xs) {
    double s = 0;
    for (double x : xs) s += x;
    return s / static_cast<double>(xs.size());
  };
  // Per-insert mean storage costs; inserts of a batch spread across the
  // cluster's nodes (ingest is disk-bound on each node's local store).
  const double slots = static_cast<double>(cfg.cost.nodes);
  util::Table table({"new images", "SIFT", "PCA-SIFT", "RNPE", "FAST"});
  for (std::size_t batch = 10000; batch <= 50000; batch += 10000) {
    const double b = static_cast<double>(batch);
    table.add_row({std::to_string(batch),
                   util::fmt_duration(mean(sift_cost) * b / slots),
                   util::fmt_duration(mean(pca_cost) * b / slots),
                   util::fmt_duration(mean(rnpe_cost) * b / slots),
                   util::fmt_duration(mean(fast_cost) * b / slots)});
  }
  table.print("Fig. 5 — insertion (storage/indexing) latency (" +
              env.dataset.spec.name + ")");
  std::printf("per-insert storage cost: SIFT %s, PCA-SIFT %s, RNPE %s, "
              "FAST %s\n",
              util::fmt_duration(mean(sift_cost)).c_str(),
              util::fmt_duration(mean(pca_cost)).c_str(),
              util::fmt_duration(mean(rnpe_cost)).c_str(),
              util::fmt_duration(mean(fast_cost)).c_str());
}

// --- Churn companion: tiered vs mutable ingest, queries under compaction --

/// Cheap synthetic eigenspace (ingest-path cost is independent of PCA
/// content; the signature-only churn workload never runs extraction).
vision::PcaModel synthetic_pca() {
  constexpr std::size_t kInputDim = 578;
  constexpr std::size_t kOutputDim = 36;
  vision::PcaModel model;
  model.mean.assign(kInputDim, 0.0f);
  model.eigenvalues.assign(kOutputDim, 1.0f / static_cast<float>(kInputDim));
  util::Rng rng(0xfa4e);
  model.components.resize(kOutputDim);
  for (auto& row : model.components) {
    row.resize(kInputDim);
    for (auto& v : row) v = static_cast<float>(rng.gaussian());
  }
  return model;
}

hash::SparseSignature churn_signature(std::uint64_t seed,
                                      std::size_t bloom_bits) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xc4u);
  std::vector<std::uint32_t> bits;
  std::uint32_t cur = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    cur += 1 + static_cast<std::uint32_t>(rng.uniform_u64(bloom_bits / 101));
    if (cur >= bloom_bits) break;
    bits.push_back(cur);
  }
  return hash::SparseSignature(bits, bloom_bits);
}

core::FastConfig churn_flat_config() { return core::FastConfig{}; }

core::FastConfig churn_tiered_config(std::size_t seal_threshold = 2000) {
  core::FastConfig cfg;
  cfg.tier.enabled = true;
  cfg.tier.seal_threshold = seal_threshold;
  cfg.tier.lanes = 8;
  cfg.tier.compact_fanin = 4;
  cfg.tier.compact_trigger = 4;
  cfg.tier.background = true;
  return cfg;
}

/// Wall-clock inserts/second for `total` signature inserts spread over
/// `threads` writers with disjoint id ranges.
double measure_ingest(core::Backend& index, std::size_t threads,
                      std::size_t total,
                      const std::vector<hash::SparseSignature>& sigs) {
  const std::size_t per_thread = total / threads;
  util::WallTimer timer;
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < threads; ++t) {
    writers.emplace_back([&, t] {
      const std::uint64_t base = 1'000'000ULL * (t + 1);
      for (std::size_t i = 0; i < per_thread; ++i) {
        index.insert_signature(base + i, sigs[(base + i) % sigs.size()]);
      }
    });
  }
  for (auto& w : writers) w.join();
  const double wall = timer.elapsed_seconds();
  return static_cast<double>(per_thread * threads) / wall;
}

/// The observations `now` holds beyond `before` (a snapshot of the same
/// histogram taken earlier).
util::MetricsSnapshot::HistogramData observed_since(
    util::MetricsSnapshot::HistogramData now,
    const util::MetricsSnapshot::HistogramData& before) {
  for (std::size_t i = 0; i < now.counts.size(); ++i) {
    now.counts[i] -= before.counts[i];
  }
  now.count -= before.count;
  now.sum -= before.sum;
  return now;
}

double percentile_of(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

void run_churn(bool smoke) {
  const std::size_t sweep_inserts = smoke ? 8000 : 40000;
  const std::size_t preload = smoke ? 4000 : 16000;
  const std::size_t churn_ops = smoke ? 4000 : 20000;  // per writer
  const std::size_t phase_queries = smoke ? 100 : 300;
  const std::size_t probes = smoke ? 50 : 100;
  constexpr std::size_t kSigs = 512;
  constexpr std::size_t kChurnWriters = 2;

  const vision::PcaModel pca = synthetic_pca();
  const std::size_t bloom_bits = churn_flat_config().bloom_bits;
  std::vector<hash::SparseSignature> sigs;
  sigs.reserve(kSigs);
  for (std::uint64_t s = 0; s < kSigs; ++s) {
    sigs.push_back(churn_signature(s, bloom_bits));
  }

  // --- Ingest sweep: one global writer lock vs hash-partitioned lanes ---
  // Wall-clock columns are whatever this host can show, so each thread
  // count runs `reps` times on fresh indexes and the table gives the median
  // with the min-max spread. The modeled column projects the measured
  // serial/parallel split to T true cores, in the same spirit as the
  // SimClock numbers elsewhere in the suite. The flat layout serializes
  // every placement behind one writer lock; the tiered path only
  // serializes per-lane placement, so its model divides the critical
  // section across lanes and the lock-free key derivation across T.
  const std::size_t reps = smoke ? 3 : 5;
  const std::size_t lanes = churn_tiered_config().tier.lanes;
  util::Table sweep({"threads", "mutable (ins/s)", "mutable min-max",
                     "tiered (ins/s)", "tiered min-max", "wall speedup",
                     "tiered modeled", "modeled speedup"});
  double flat_rate_1 = 0.0;   // median single-thread rates calibrate the
  double insert_s_1 = 0.0;    // model: total insert time and its lock-free
  double keys_s_1 = 0.0;      // key-derivation share.
  double modeled_speedup_at_max = 0.0;
  double wall_speedup_at_max = 0.0;
  std::size_t max_threads = 0;
  auto rate = [](double r) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", r);
    return std::string(buf);
  };
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    std::vector<double> flat_rates, tiered_rates, keys_s;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      core::FastIndex flat(churn_flat_config(), pca);
      flat_rates.push_back(measure_ingest(flat, threads, sweep_inserts, sigs));
      core::TieredIndex tiered(churn_tiered_config(), pca);
      tiered_rates.push_back(
          measure_ingest(tiered, threads, sweep_inserts, sigs));
      tiered.wait_idle();
      const auto snap = tiered.metrics().snapshot();
      keys_s.push_back(snap.histograms.at("sa.keys_wall_s").sum /
                       static_cast<double>(sweep_inserts));
    }
    const double flat_rate = percentile_of(flat_rates, 50.0);
    const double tiered_rate = percentile_of(tiered_rates, 50.0);
    if (threads == 1) {
      flat_rate_1 = flat_rate;
      insert_s_1 = 1.0 / tiered_rate;
      keys_s_1 = percentile_of(keys_s, 50.0);
    }
    // Modeled wall at T cores: lock-free work divides by T, per-lane
    // critical sections divide by the lane count (hash-spread writers).
    const double critical_s = std::max(insert_s_1 - keys_s_1, 1e-9);
    const double modeled_wall_per_insert = std::max(
        insert_s_1 / static_cast<double>(threads),
        critical_s / static_cast<double>(std::min(threads, lanes)));
    const double modeled_rate = 1.0 / modeled_wall_per_insert;
    const double modeled_speedup = modeled_rate / flat_rate_1;
    const double wall_speedup = tiered_rate / flat_rate;
    if (threads >= max_threads) {
      max_threads = threads;
      modeled_speedup_at_max = modeled_speedup;
      wall_speedup_at_max = wall_speedup;
    }
    char wall_s[32], mratio_s[32];
    std::snprintf(wall_s, sizeof(wall_s), "%.2fx", wall_speedup);
    std::snprintf(mratio_s, sizeof(mratio_s), "%.2fx", modeled_speedup);
    const auto [flat_min, flat_max] =
        std::minmax_element(flat_rates.begin(), flat_rates.end());
    const auto [tiered_min, tiered_max] =
        std::minmax_element(tiered_rates.begin(), tiered_rates.end());
    sweep.add_row({std::to_string(threads), rate(flat_rate),
                   rate(*flat_min) + "-" + rate(*flat_max), rate(tiered_rate),
                   rate(*tiered_min) + "-" + rate(*tiered_max), wall_s,
                   rate(modeled_rate), mratio_s});
  }
  sweep.print("churn — multi-thread ingest sweep (" +
              std::to_string(sweep_inserts) + " signature inserts, median of " +
              std::to_string(reps) + " runs, host has " +
              std::to_string(std::thread::hardware_concurrency()) +
              " core(s))");
  std::printf("tiered ingest speedup at %zu threads: wall %.2fx, "
              "modeled-at-%zu-cores %.2fx\n",
              max_threads, wall_speedup_at_max, max_threads,
              modeled_speedup_at_max);

  // --- Churn phase: sustained insert/erase + concurrent queries ---------
  // A tighter seal threshold than the sweep so seals and compactions fire
  // repeatedly at bench scale while the reader is timing queries.
  core::TieredIndex index(churn_tiered_config(smoke ? 250 : 500), pca);
  for (std::uint64_t id = 0; id < preload; ++id) {
    index.insert_signature(id, sigs[id % kSigs]);
  }
  index.wait_idle();

  // Wall time is whatever a 2-writers-plus-reader schedule on this host
  // gives; the simulated cost is the index work a query actually did
  // (candidates gathered, buckets probed), immune to preemption noise.
  // Only the timing reader takes reader locks, so the growth of the
  // lock.reader_wait_s sum across one query is the time that query spent
  // blocked on lane locks (one acquisition per lane).
  const util::Histogram& reader_wait =
      index.metrics().latency_histogram("lock.reader_wait_s");
  struct Timed {
    std::vector<double> walls, sims, waits;
  };
  auto timed_queries = [&](Timed& out) {
    for (std::size_t q = 0; q < phase_queries; ++q) {
      const double waited = reader_wait.sum();
      util::WallTimer timer;
      const hash::SparseSignature& sig = sigs[q % kSigs];
      const core::QueryResult r = index.query_signature(sig, 10);
      out.walls.push_back(timer.elapsed_seconds());
      out.sims.push_back(
          core::sim_cost::query(index, sig, r, /*from_image=*/false)
              .clock.elapsed_s());
      out.waits.push_back(reader_wait.sum() - waited);
    }
  };
  // Writers' lane-lock waits per acquisition: the histogram before and
  // after each phase.
  const auto writer_waits = [&] {
    return index.metrics().snapshot().histograms.at("lock.writer_wait_s");
  };
  const auto before_idle = writer_waits();
  Timed idle;
  timed_queries(idle);
  const auto after_idle = writer_waits();

  // Each writer keeps a sliding window of its own fresh ids live (erases
  // hit the mutable memtable) and retires preload ids by parity (erases
  // hit sealed segments, leaving tombstones) — so seals, tombstone
  // shadowing and compactions all fire while the reader times queries.
  constexpr std::uint64_t kWindow = 512;
  const std::uint64_t retire_per_writer = preload / 4;  // half, split by parity
  Timed churn;
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kChurnWriters; ++w) {
    writers.emplace_back([&, w] {
      const std::uint64_t base = 10'000'000ULL * (w + 1);
      for (std::uint64_t i = 0; i < churn_ops; ++i) {
        index.insert_signature(base + i, sigs[(base + i) % kSigs]);
        if (i >= kWindow) index.erase(base + i - kWindow);
        if (i % 2 == 0 && i / 2 < retire_per_writer) {
          index.erase((i & ~std::uint64_t{1}) + w);
        }
      }
    });
  }
  std::thread reader([&] { timed_queries(churn); });
  for (auto& t : writers) t.join();
  reader.join();
  const auto after_churn = writer_waits();
  index.wait_idle();

  // Only the idle row's sim cells are reproducible byte for byte. During
  // churn the reader races the writers, so the layers a query walks
  // (memtable or sealed segments, before or after a compaction) and hence
  // its priced index work depend on the thread interleaving: the "during
  // churn" sim p50/p99 move by a fraction of a microsecond between runs
  // of the same build.
  util::Table lat({"phase", "wall p50", "wall p99", "sim p50", "sim p99",
                   "reader-wait p50", "reader-wait p99", "writer-wait p99"});
  const auto add_phase = [&](const std::string& phase, const Timed& t,
                             const auto& before, const auto& after) {
    const auto writer_wait = observed_since(after, before);
    lat.add_row({phase, util::fmt_duration(percentile_of(t.walls, 50.0)),
                 util::fmt_duration(percentile_of(t.walls, 99.0)),
                 util::fmt_duration(percentile_of(t.sims, 50.0)),
                 util::fmt_duration(percentile_of(t.sims, 99.0)),
                 util::fmt_duration(percentile_of(t.waits, 50.0)),
                 util::fmt_duration(percentile_of(t.waits, 99.0)),
                 writer_wait.count == 0
                     ? std::string("-")
                     : util::fmt_duration(writer_wait.percentile(99.0))});
  };
  add_phase("idle", idle, before_idle, after_idle);
  add_phase("during churn", churn, after_idle, after_churn);
  lat.print("churn — query latency, idle vs during compaction");
  const double idle_sim_p99 = percentile_of(idle.sims, 99.0);
  const double churn_sim_p99 = percentile_of(churn.sims, 99.0);
  std::printf("query p99 ratio churn/idle: wall %.2f, sim (index work) %.2f\n",
              percentile_of(idle.walls, 99.0) > 0
                  ? percentile_of(churn.walls, 99.0) /
                        percentile_of(idle.walls, 99.0)
                  : 0.0,
              idle_sim_p99 > 0 ? churn_sim_p99 / idle_sim_p99 : 0.0);

  // --- Ground truth: flat index rebuilt from the final live set ---------
  const std::size_t expected_live =
      preload - kChurnWriters * retire_per_writer +
      kChurnWriters * std::min<std::uint64_t>(kWindow, churn_ops);
  const std::size_t live = index.size();
  core::FastIndex truth(churn_flat_config(), pca);
  std::size_t rebuilt = 0;
  auto adopt = [&](std::uint64_t id) {
    const auto sig = index.signature_of(id);
    if (sig.has_value()) {
      truth.insert_signature(id, *sig);
      ++rebuilt;
    }
  };
  for (std::uint64_t id = 0; id < preload; ++id) adopt(id);
  for (std::size_t w = 0; w < kChurnWriters; ++w) {
    const std::uint64_t base = 10'000'000ULL * (w + 1);
    for (std::uint64_t i = 0; i < churn_ops; ++i) adopt(base + i);
  }

  std::size_t mismatched = 0;
  for (std::size_t q = 0; q < probes; ++q) {
    const auto& sig = sigs[q % kSigs];
    const core::QueryResult a = index.query_signature(sig, 10);
    const core::QueryResult b = truth.query_signature(sig, 10);
    bool same = a.hits.size() == b.hits.size();
    for (std::size_t h = 0; same && h < a.hits.size(); ++h) {
      same = a.hits[h].id == b.hits[h].id && a.hits[h].score == b.hits[h].score;
    }
    if (!same) ++mismatched;
  }
  const bool ok = live == expected_live && rebuilt == live && mismatched == 0;
  std::printf("ground truth: live=%zu (expected %zu), rebuilt=%zu, "
              "probe queries exact %zu/%zu -> %s\n",
              live, expected_live, rebuilt, probes - mismatched, probes,
              ok ? "OK" : "LOST");

  const auto snap = index.metrics().snapshot();
  std::printf("tier: seals=%llu compactions=%llu segments=%.0f "
              "query.wall_s p99=%s\n",
              static_cast<unsigned long long>(snap.counters.at("tier.seals")),
              static_cast<unsigned long long>(
                  snap.counters.at("compaction.runs")),
              snap.gauges.at("segment.count"),
              util::fmt_duration(
                  snap.histograms.at("query.wall_s").percentile(99.0))
                  .c_str());
  dump_metrics(index.metrics(), "fig5_churn");
}

}  // namespace
}  // namespace fast::bench

int main(int argc, char** argv) {
  using namespace fast;
  // Strip the churn flags before positional-scale parsing.
  bool churn = false;
  bool smoke = false;
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--churn") {
      churn = true;
    } else if (arg == "--churn=smoke") {
      churn = smoke = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  const bench::BenchScale scale = bench::BenchScale::from_args(
      static_cast<int>(passthrough.size()), passthrough.data());
  if (churn) {
    std::printf("== bench fig5: tiered ingest + churn ==\n");
    bench::run_churn(smoke);
    return 0;
  }
  std::printf("== bench fig5: insertion latency ==\n");
  bench::run_dataset(workload::DatasetSpec::wuhan(scale.wuhan_images),
                     scale.queries);
  bench::run_dataset(workload::DatasetSpec::shanghai(scale.shanghai_images),
                     scale.queries);
  return 0;
}

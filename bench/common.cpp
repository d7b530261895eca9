#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string_view>

#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"
#include "workload/scene_generator.hpp"

namespace fast::bench {

BenchScale BenchScale::from_args(int argc, char** argv) {
  BenchScale scale;
  // Environment first (FAST_TRACE et al.), then explicit flags on top, so
  // `--trace` wins over an exported FAST_TRACE=0.01.
  util::configure_global_tracer_from_env();
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--trace" || arg.rfind("--trace=", 0) == 0) {
      util::TraceOptions opts = util::Tracer::global().options();
      opts.sample_rate =
          arg == "--trace" ? 1.0 : std::atof(arg.data() + sizeof("--trace=") - 1);
      util::Tracer::global().configure(opts);
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() > 0 && std::atoi(positional[0]) > 0) {
    scale.wuhan_images = static_cast<std::size_t>(std::atoi(positional[0]));
  }
  if (positional.size() > 1 && std::atoi(positional[1]) > 0) {
    scale.shanghai_images = static_cast<std::size_t>(std::atoi(positional[1]));
  } else {
    // Preserve Table II's 21:39 ratio when only Wuhan is overridden.
    scale.shanghai_images = scale.wuhan_images * 39 / 21;
  }
  if (positional.size() > 2 && std::atoi(positional[2]) > 0) {
    scale.queries = static_cast<std::size_t>(std::atoi(positional[2]));
  }
  return scale;
}

DatasetEnv make_dataset_env(const workload::DatasetSpec& spec,
                            std::size_t queries) {
  DatasetEnv env;
  env.dataset = workload::SceneGenerator(spec).generate();
  std::vector<img::Image> sample;
  const std::size_t train_n = std::min<std::size_t>(16, env.dataset.photos.size());
  for (std::size_t i = 0; i < train_n; ++i) {
    sample.push_back(env.dataset.photos[i].image);
  }
  env.pca = vision::train_pca_sift(sample, env.pca_cfg, 1500);
  env.queries = workload::make_dup_queries(env.dataset, queries,
                                           0xbe9c ^ spec.seed);
  env.cal_queries = workload::make_dup_queries(env.dataset, 12,
                                               0xca1 ^ spec.seed);
  return env;
}

Schemes build_schemes(const DatasetEnv& env, const SchemeConfig& cfg) {
  Schemes s;
  baseline::SiftBaselineConfig scfg;
  scfg.max_keypoints = cfg.max_keypoints;
  scfg.cache_pages = cfg.cache_pages;
  s.sift = std::make_unique<baseline::SiftBaseline>(scfg, cfg.cost);

  baseline::PcaSiftBaselineConfig pcfg;
  pcfg.max_keypoints = cfg.max_keypoints;
  pcfg.cache_pages = cfg.cache_pages;
  pcfg.pca_sift = env.pca_cfg;
  s.pca_sift =
      std::make_unique<baseline::PcaSiftBaseline>(pcfg, cfg.cost, env.pca);

  baseline::RnpeConfig rcfg;
  s.rnpe = std::make_unique<baseline::Rnpe>(rcfg, cfg.cost);

  s.fast = build_fast_only(env, cfg);

  for (const auto& photo : env.dataset.photos) {
    s.sift_build.merge(s.sift->insert(photo.id, photo.image).cost);
    s.pca_build.merge(s.pca_sift->insert(photo.id, photo.image).cost);
    s.rnpe_build.merge(s.rnpe
                           ->insert(photo.id, photo.geo_x, photo.geo_y,
                                    photo.landmark, photo.view)
                           .cost);
    const hash::SparseSignature sig = s.fast->summarize(photo.image);
    const core::InsertResult placed = s.fast->insert_signature(photo.id, sig);
    s.fast_build.merge(
        core::sim_cost::insert(*s.fast, sig, placed, /*from_image=*/true));
  }
  return s;
}

std::unique_ptr<core::FastIndex> build_fast_only(const DatasetEnv& env,
                                                 const SchemeConfig& cfg,
                                                 core::FastConfig base) {
  base.pca_sift = env.pca_cfg;
  base.max_keypoints = cfg.max_keypoints;
  base.cost = cfg.cost;
  auto index = std::make_unique<core::FastIndex>(base, env.pca);
  // Calibration (needed by the p-stable backend; harmless for MinHash).
  std::vector<hash::SparseSignature> corpus_sample, query_sample;
  const std::size_t sample_n =
      std::min<std::size_t>(48, env.dataset.photos.size());
  for (std::size_t i = 0; i < sample_n; ++i) {
    corpus_sample.push_back(index->summarize(env.dataset.photos[i].image));
  }
  for (const auto& q : env.cal_queries) {
    query_sample.push_back(index->summarize(q.image));
  }
  util::ThreadPool pool;
  index->calibrate_scale(query_sample, corpus_sample, &pool);
  return index;
}

void print_dataset_banner(const workload::Dataset& dataset) {
  std::printf(
      "dataset %-9s: %zu images (scaled stand-in for Table II), "
      "%zu landmarks, %s of original photo data\n",
      dataset.spec.name.c_str(), dataset.photos.size(),
      dataset.spec.landmarks,
      util::fmt_bytes(static_cast<double>(dataset.total_file_bytes())).c_str());
}

void dump_metrics(const util::MetricsRegistry& registry,
                  const std::string& name) {
  const char* override_dir = std::getenv("FAST_METRICS_DIR");
  const std::string dir = override_dir != nullptr ? override_dir : "results";
  try {
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/" + name + "_metrics.json";
    registry.write_json(path);
    std::printf("metrics: %s\n", path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "metrics dump failed for %s: %s\n", name.c_str(),
                 e.what());
  }
}

void dump_trace(const std::string& name) {
  util::Tracer& tracer = util::Tracer::global();
  const util::Tracer::Stats stats = tracer.stats();
  if (!tracer.enabled() && stats.spans_recorded == 0) return;
  const char* trace_dir = std::getenv("FAST_TRACE_DIR");
  const char* metrics_dir = std::getenv("FAST_METRICS_DIR");
  const std::string dir = trace_dir != nullptr     ? trace_dir
                          : metrics_dir != nullptr ? metrics_dir
                                                   : "results";
  try {
    std::filesystem::create_directories(dir);
    const std::string trace_path = dir + "/" + name + ".trace.json";
    const std::string profiles_path = dir + "/" + name + ".query_profiles.json";
    tracer.write_chrome_trace(trace_path);
    tracer.write_profiles(profiles_path);
    std::printf(
        "trace: %s (%llu spans, %llu/%llu requests sampled, %llu slow, "
        "%llu dropped)\n",
        trace_path.c_str(),
        static_cast<unsigned long long>(stats.spans_recorded),
        static_cast<unsigned long long>(stats.requests_sampled),
        static_cast<unsigned long long>(stats.requests_seen),
        static_cast<unsigned long long>(stats.slow_queries),
        static_cast<unsigned long long>(stats.spans_dropped));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace dump failed for %s: %s\n", name.c_str(),
                 e.what());
  }
  // Per-configuration scoping: the tracer is process-global, so without this
  // reset a bench's second configuration would re-export (and mis-attribute)
  // every span the first one recorded.
  tracer.reset();
}

bool contains_id(const std::vector<core::ScoredId>& hits,
                 std::uint64_t wanted) {
  for (const auto& h : hits) {
    if (h.id == wanted) return true;
  }
  return false;
}

}  // namespace fast::bench

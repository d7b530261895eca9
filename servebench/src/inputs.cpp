#include "inputs.hpp"

#include <algorithm>

#include "core/config.hpp"
#include "core/pipeline/factory.hpp"
#include "hash/hashes.hpp"
#include "load_driver.hpp"
#include "server/protocol.hpp"
#include "util/thread_pool.hpp"
#include "vision/pca_sift.hpp"
#include "workload/query_gen.hpp"
#include "workload/scene_generator.hpp"

namespace servebench {

namespace {

using fast::hash::SparseSignature;

double elapsed_ms(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-6;
}

}  // namespace

RealCorpus build_real_corpus(std::uint64_t seed, std::size_t images,
                             std::size_t queries, std::size_t threads,
                             SpanRecorder* spans) {
  ScopedSpan setup_span(spans, "fe_sm.setup");
  // The scene corpus keeps the Wuhan spec's own seed: a corpus drawn per
  // workload seed moved per-query ranking work by a quarter between seeds,
  // more than any bound. The seed picks everything sent over it instead.
  const fast::workload::DatasetSpec spec =
      fast::workload::DatasetSpec::wuhan(images);
  fast::workload::Dataset dataset;
  {
    ScopedSpan span(spans, "fe_sm.scene_generate");
    dataset = fast::workload::SceneGenerator(spec).generate();
  }

  RealCorpus corpus;
  fast::vision::PcaModel pca;
  {
    ScopedSpan span(spans, "fe_sm.pca_train");
    const std::int64_t start = now_ns();
    std::vector<fast::img::Image> sample;
    const std::size_t train_n = std::min<std::size_t>(16, images);
    for (std::size_t i = 0; i < train_n; ++i) {
      sample.push_back(dataset.photos[i].image);
    }
    fast::core::FastConfig config;
    pca = fast::vision::train_pca_sift(sample, config.pca_sift, 1500);
    corpus.pca_train_s = elapsed_ms(start) * 1e-3;
  }

  std::vector<fast::workload::DupQuery> probes;
  {
    ScopedSpan span(spans, "fe_sm.make_dup_queries");
    probes = fast::workload::make_dup_queries(
        dataset, queries, fast::hash::mix64(seed ^ 0xd0b1e5ULL));
  }

  const fast::core::FastConfig config;
  const auto summarizer =
      fast::core::pipeline::make_summarizer(config, std::move(pca));
  const std::size_t views = spec.views_per_landmark;
  corpus.ids.resize(images);
  corpus.sigs.resize(images);
  corpus.cluster.resize(images);
  corpus.queries.resize(queries);
  corpus.query_cluster.resize(queries);
  corpus.relevant.resize(queries);
  corpus.summarize_ms.assign(images + queries, 0.0);
  {
    ScopedSpan span(spans, "fe_sm.summarize_all");
    fast::util::ThreadPool pool(std::max<std::size_t>(1, threads));
    pool.parallel_for(images + queries, [&](std::size_t i) {
      const std::int64_t start = now_ns();
      if (i < images) {
        const auto& photo = dataset.photos[i];
        corpus.ids[i] = photo.id;
        corpus.cluster[i] =
            static_cast<std::uint32_t>(photo.landmark * views + photo.view);
        corpus.sigs[i] = summarizer->summarize(photo.image);
      } else {
        const auto& q = probes[i - images];
        corpus.query_cluster[i - images] =
            static_cast<std::uint32_t>(q.landmark * views + q.view);
        corpus.relevant[i - images] = q.relevant;
        corpus.queries[i - images] = summarizer->summarize(q.image);
      }
      corpus.summarize_ms[i] = elapsed_ms(start);
    });
  }
  return corpus;
}

Op SearchOps::next(std::uint64_t seq) {
  Op op;
  op.kind = Op::kQuery;
  op.id = i_ % corpus_.queries.size();
  op.body = fast::server::encode_query(seq, kTopK, corpus_.queries[op.id]);
  ++i_;
  return op;
}

SmallOps::SmallOps(std::uint64_t seed, std::size_t key_space)
    : rng_(fast::hash::mix64(seed ^ 0x5a11ULL)), zipf_(key_space, 0.99) {}

SparseSignature SmallOps::signature_of(std::uint64_t key) {
  return fast::bench::synth_signature(key, kBloomBits, kSmallBitsSet);
}

Op SmallOps::next(std::uint64_t seq) {
  Op op;
  op.id = static_cast<std::uint64_t>(zipf_(rng_));
  if (rng_.bernoulli(0.9)) {
    op.kind = Op::kQuery;
    op.body = fast::server::encode_query(seq, kTopK, signature_of(op.id));
  } else if (rng_.bernoulli(0.1)) {
    op.kind = Op::kErase;
    op.body = fast::server::encode_erase(seq, op.id);
  } else {
    op.kind = Op::kInsert;
    op.body = fast::server::encode_insert(seq, op.id, signature_of(op.id));
  }
  return op;
}

}  // namespace servebench

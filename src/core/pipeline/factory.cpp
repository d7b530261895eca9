#include "core/pipeline/factory.hpp"

#include "hash/aggregators.hpp"
#include "hash/group_stores.hpp"
#include "vision/bloom_summarizer.hpp"

namespace fast::core::pipeline {

std::unique_ptr<Summarizer> make_summarizer(const FastConfig& config,
                                            vision::PcaModel pca) {
  vision::BloomSummarizerConfig sc;
  sc.dog = config.dog;
  sc.pca_sift = config.pca_sift;
  sc.max_keypoints = config.max_keypoints;
  sc.bloom_bits = config.bloom_bits;
  sc.bloom_hashes = config.bloom_hashes;
  sc.quantize_group_dims = config.quantize_group_dims;
  sc.quantize_cell = config.quantize_cell;
  sc.spatial_cell_px = config.spatial_cell_px;
  return std::make_unique<vision::BloomSummarizer>(sc, std::move(pca));
}

std::unique_ptr<SemanticAggregator> make_aggregator(const FastConfig& config) {
  if (config.sa_backend == FastConfig::SaBackend::kPStable) {
    return std::make_unique<hash::PStableAggregator>(
        config.lsh, config.probe_depth, config.lsh_input_scale);
  }
  return std::make_unique<hash::MinHashAggregator>(
      config.minhash, config.minhash_multiprobe,
      static_cast<std::uint32_t>(config.bloom_bits));
}

std::unique_ptr<GroupStore> make_group_store(const FastConfig& config,
                                             std::size_t tables) {
  if (config.chs_backend == FastConfig::ChsBackend::kChained) {
    return std::make_unique<hash::ChainedGroupStore>(
        config.chained_buckets, config.cuckoo.seed, tables);
  }
  if (config.chs_backend == FastConfig::ChsBackend::kCompactFlatCuckoo) {
    return std::make_unique<hash::CompactFlatCuckooGroupStore>(config.cuckoo,
                                                               tables);
  }
  return std::make_unique<hash::FlatCuckooGroupStore>(config.cuckoo, tables);
}

}  // namespace fast::core::pipeline

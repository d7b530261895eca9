// SemanticAggregator adapters: the two SA backends of the pipeline, both
// producing per-table bucket keys for the same group store.
//
//  - PStableAggregator: the paper's p-stable (L2) LSH over the Bloom
//    bit-vector, with adjacent-bucket multi-probe (§III-C2, Definition 1).
//    Key derivation runs the sparse-gather kernel
//    (PStableLsh::bucket_coords_sparse): O(nnz*L*M) over set bits only,
//    bit-exact with the dense projection it replaces. Simulated costs stay
//    paper-faithful (dense L*M*dim flops).
//  - MinHashAggregator: MinHash banding over the sparse set-bit list, whose
//    collision probability is the signatures' Jaccard similarity (the
//    default on this repo's synthetic features; DESIGN.md §2). Dense
//    signatures of the index's width take their minhashes from a rank-
//    prefix table instead of hashing every set bit (DESIGN.md §3n).
#pragma once

#include <cstdint>
#include <vector>

#include "core/pipeline/semantic_aggregator.hpp"
#include "hash/minhash.hpp"
#include "hash/pstable_lsh.hpp"

namespace fast::hash {

class PStableAggregator final : public core::pipeline::SemanticAggregator {
 public:
  /// `probe_depth` adjacent buckets are probed per table on queries (0
  /// disables); `input_scale` premultiplies the dense input vector (the
  /// paper's R-tuning, adjustable later via set_input_scale).
  PStableAggregator(const LshConfig& config, int probe_depth,
                    double input_scale);

  std::size_t table_count() const noexcept override;
  std::vector<std::uint64_t> keys(
      const SparseSignature& signature,
      std::vector<std::vector<std::uint64_t>>* probes) const override;
  CostDomain cost_domain() const noexcept override {
    return CostDomain::kFlops;
  }
  std::size_t insert_hash_ops(
      const SparseSignature& signature) const noexcept override;
  std::size_t query_hash_ops_per_table(
      const SparseSignature& signature) const noexcept override;
  std::size_t param_bytes() const noexcept override;
  void set_input_scale(double scale) override { input_scale_ = scale; }

 private:
  PStableLsh lsh_;
  int probe_depth_;
  double input_scale_;
};

class MinHashAggregator final : public core::pipeline::SemanticAggregator {
 public:
  /// When `multiprobe` is set, queries additionally probe each band with
  /// one position substituted by its runner-up minhash. `bit_count` is the
  /// signature width the MinHasher builds its rank-prefix table for (0:
  /// none); keys are the same either way.
  MinHashAggregator(const MinHashConfig& config, bool multiprobe,
                    std::uint32_t bit_count);

  std::size_t table_count() const noexcept override;
  std::vector<std::uint64_t> keys(
      const SparseSignature& signature,
      std::vector<std::vector<std::uint64_t>>* probes) const override;
  CostDomain cost_domain() const noexcept override {
    return CostDomain::kMixOps;
  }
  std::size_t insert_hash_ops(
      const SparseSignature& signature) const noexcept override;
  std::size_t query_hash_ops_per_table(
      const SparseSignature& signature) const noexcept override;
  std::size_t param_bytes() const noexcept override;

 private:
  MinHasher minhasher_;
  bool multiprobe_;
};

}  // namespace fast::hash

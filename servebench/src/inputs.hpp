// Everything the benchmark sends is generated here from the workload seed:
// the rendered-and-summarized corpus, the near-duplicate query stream and
// the workloads' operation streams.
// fast_server only ever receives these generated inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hash/sparse_signature.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

namespace servebench {

inline constexpr std::size_t kBloomBits = 16384;
inline constexpr std::uint32_t kTopK = 10;

/// FE/SM output of one seeded scene-generator corpus.
struct RealCorpus {
  std::vector<std::uint64_t> ids;                 ///< photo ids
  std::vector<fast::hash::SparseSignature> sigs;  ///< one summary per photo
  std::vector<std::uint32_t> cluster;             ///< (landmark, view) per photo
  std::vector<fast::hash::SparseSignature> queries;  ///< near-dup probes
  std::vector<std::uint32_t> query_cluster;       ///< ground-truth cluster
  std::vector<std::vector<std::uint64_t>> relevant;  ///< cluster member ids
  double pca_train_s = 0.0;
  std::vector<double> summarize_ms;  ///< per Summarizer::summarize call
};

/// Renders `images` Wuhan-shaped photos (the spec's fixed scene seed),
/// trains the PCA-SIFT eigenspace on the first 16, summarizes every photo
/// plus `queries` near-duplicate probes drawn with `seed`
/// (workload::make_dup_queries), fanning FE/SM over `threads`.
RealCorpus build_real_corpus(std::uint64_t seed, std::size_t images,
                             std::size_t queries, std::size_t threads,
                             SpanRecorder* spans);

/// One wire operation of a workload stream.
struct Op {
  enum Kind : std::uint8_t { kQuery, kInsert, kErase };
  Kind kind = kQuery;
  std::uint64_t id = 0;     ///< insert/erase target; query: source index/id
  std::vector<std::uint8_t> body;  ///< encoded request body
};

class OpSource {
 public:
  virtual ~OpSource() = default;
  /// The next operation, encoded with sequence number `seq`.
  virtual Op next(std::uint64_t seq) = 0;
};

/// search_real: queries cycling through the near-duplicate probe list.
class SearchOps : public OpSource {
 public:
  explicit SearchOps(const RealCorpus& corpus) : corpus_(corpus) {}
  Op next(std::uint64_t seq) override;

 private:
  const RealCorpus& corpus_;
  std::size_t i_ = 0;
};

/// wire_small: the fig_serving mix over bench::synth_signature keys —
/// zipf(0.99) over [1, key_space], 90% queries, writes 9:1 insert:erase.
class SmallOps : public OpSource {
 public:
  SmallOps(std::uint64_t seed, std::size_t key_space);
  Op next(std::uint64_t seq) override;

  static fast::hash::SparseSignature signature_of(std::uint64_t key);

 private:
  fast::util::Rng rng_;
  fast::util::ZipfDistribution zipf_;
};

/// Signature geometry of wire_small (load_driver's sig_bits_set).
inline constexpr std::size_t kSmallBitsSet = 64;

}  // namespace servebench

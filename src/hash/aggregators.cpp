#include "hash/aggregators.hpp"

#include "hash/multi_probe.hpp"

namespace fast::hash {

PStableAggregator::PStableAggregator(const LshConfig& config, int probe_depth,
                                     double input_scale)
    : lsh_(config), probe_depth_(probe_depth), input_scale_(input_scale) {}

std::size_t PStableAggregator::table_count() const noexcept {
  return lsh_.config().tables;
}

std::vector<std::uint64_t> PStableAggregator::keys(
    const SparseSignature& signature,
    std::vector<std::vector<std::uint64_t>>* probes) const {
  const std::size_t n = table_count();
  const std::size_t m = lsh_.config().hashes_per_table;
  std::vector<std::uint64_t> keys(n);
  if (probes != nullptr) probes->assign(n, {});

  // Sparse-gather projection: a signature is 0/1 by construction, so its
  // dense form is fully described by (set_bits, input_scale) and all L*M
  // coordinates come out of one O(nnz * L * M) pass — bit-exact with the
  // dense path (see PStableLsh::bucket_coords_sparse). keys() is const and
  // raced by batch queries, so the scratch is per-thread, not per-instance.
  static thread_local SparseProjectionScratch scratch;
  const std::span<const std::int32_t> coords = lsh_.bucket_coords_sparse(
      signature.set_bits(), static_cast<float>(input_scale_), scratch);
  for (std::size_t t = 0; t < n; ++t) {
    const std::span<const std::int32_t> home = coords.subspan(t * m, m);
    keys[t] = lsh_.bucket_key(t, home);
    if (probes != nullptr && probe_depth_ > 0) {
      auto& probe_keys = (*probes)[t];
      const BucketCoords home_vec(home.begin(), home.end());
      for (const BucketCoords& p : probe_sequence(home_vec, probe_depth_)) {
        probe_keys.push_back(lsh_.bucket_key(t, p));
      }
    }
  }
  return keys;
}

std::size_t PStableAggregator::insert_hash_ops(
    const SparseSignature& /*signature*/) const noexcept {
  // Paper-faithful simulated cost: the paper's SA stage performs dense
  // L*M*dim-flop projections (Definition 1), and the simulated platform is
  // still charged exactly that, even though the native kernel now runs the
  // O(nnz*L*M) sparse path. Real kernel time is tracked separately by the
  // sa.keys_wall_s histogram (DESIGN.md §3b/§3c).
  const LshConfig& c = lsh_.config();
  return c.tables * c.hashes_per_table * c.dim;
}

std::size_t PStableAggregator::query_hash_ops_per_table(
    const SparseSignature& /*signature*/) const noexcept {
  // Dense per-table flops, same paper-faithful accounting as
  // insert_hash_ops.
  const LshConfig& c = lsh_.config();
  return c.hashes_per_table * c.dim;
}

std::size_t PStableAggregator::param_bytes() const noexcept {
  // L*M a-vectors of dim floats plus one offset each, twice: the sparse
  // kernel keeps a transposed copy of the coefficient matrix (a_t_), which
  // is real resident memory and is reported as such (Table IV accounting).
  const LshConfig& c = lsh_.config();
  return c.tables * c.hashes_per_table *
         (2 * c.dim * sizeof(float) + sizeof(float));
}

MinHashAggregator::MinHashAggregator(const MinHashConfig& config,
                                     bool multiprobe, std::uint32_t bit_count)
    : minhasher_(config, bit_count), multiprobe_(multiprobe) {}

std::size_t MinHashAggregator::table_count() const noexcept {
  return minhasher_.config().bands;
}

std::vector<std::uint64_t> MinHashAggregator::keys(
    const SparseSignature& signature,
    std::vector<std::vector<std::uint64_t>>* probes) const {
  const std::size_t n = table_count();
  std::vector<std::uint64_t> keys(n);
  if (probes != nullptr) probes->assign(n, {});

  const auto mh = minhasher_.minhashes(signature);
  for (std::size_t t = 0; t < n; ++t) {
    keys[t] = minhasher_.band_key(t, mh);
    if (probes != nullptr && multiprobe_) {
      (*probes)[t] = minhasher_.probe_keys(t, mh);
    }
  }
  return keys;
}

std::size_t MinHashAggregator::insert_hash_ops(
    const SparseSignature& signature) const noexcept {
  // Minwise hashing streams every set bit through each hash's mixer.
  return signature.popcount() * minhasher_.hash_count();
}

std::size_t MinHashAggregator::query_hash_ops_per_table(
    const SparseSignature& signature) const noexcept {
  return signature.popcount() * minhasher_.config().band_size;
}

std::size_t MinHashAggregator::param_bytes() const noexcept {
  // The salts. The rank-prefix table is derived from them and the width,
  // a lookup cache like a query's scorer bitmap, so Table IV leaves it out.
  return minhasher_.hash_count() * sizeof(std::uint64_t);
}

}  // namespace fast::hash

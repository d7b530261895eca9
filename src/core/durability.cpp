#include "core/durability.hpp"

#include <bit>
#include <stdexcept>

#include "core/config.hpp"

namespace fast::core {

namespace {

void fp_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;  // FNV-1a 64-bit prime
  }
}

void fp_mix_f64(std::uint64_t& h, double v) {
  fp_mix(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace

std::uint64_t config_fingerprint(const FastConfig& c) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64-bit offset basis
  fp_mix(h, c.bloom_bits);
  fp_mix(h, c.bloom_hashes);
  fp_mix(h, c.quantize_group_dims);
  fp_mix_f64(h, static_cast<double>(c.quantize_cell));
  fp_mix_f64(h, c.spatial_cell_px);
  fp_mix(h, static_cast<std::uint64_t>(c.sa_backend));
  fp_mix(h, c.lsh.dim);
  fp_mix(h, c.lsh.tables);
  fp_mix(h, c.lsh.hashes_per_table);
  fp_mix_f64(h, c.lsh.omega);
  fp_mix(h, c.lsh.seed);
  fp_mix(h, c.minhash.bands);
  fp_mix(h, c.minhash.band_size);
  fp_mix(h, c.minhash.seed);
  fp_mix(h, c.minhash_multiprobe ? 1 : 0);
  fp_mix(h, static_cast<std::uint64_t>(c.probe_depth));
  fp_mix(h, static_cast<std::uint64_t>(c.chs_backend));
  fp_mix(h, c.cuckoo.capacity);
  fp_mix(h, c.cuckoo.window);
  fp_mix(h, c.cuckoo.max_kicks);
  fp_mix(h, c.cuckoo.seed);
  fp_mix(h, c.chained_buckets);
  // Tiered directories carry a manifest + per-segment sections that a flat
  // open cannot interpret (and vice versa), so the layout flavor is part of
  // the fingerprint. Mixed only when enabled to keep every pre-tier
  // fingerprint (golden fixtures, existing directories) unchanged.
  if (c.tier.enabled) fp_mix(h, 0x7157);
  return h;
}

storage::StatusOr<hash::SparseSignature> decode_insert_payload(
    std::span<const std::uint8_t> payload, std::size_t bloom_bits) {
  try {
    hash::SparseSignature sig = hash::SparseSignature::decode(payload);
    if (sig.bit_count() != bloom_bits) {
      return storage::Status::error(
          storage::StatusCode::kCorrupt,
          "WAL insert payload has the wrong signature width");
    }
    return sig;
  } catch (const std::runtime_error& e) {
    return storage::Status::error(
        storage::StatusCode::kCorrupt,
        std::string("undecodable WAL insert payload: ") + e.what());
  }
}

}  // namespace fast::core

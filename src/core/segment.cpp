#include "core/segment.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace fast::core {

namespace {
// Segments always hash key fingerprints with the same probe count and
// seed; only the width scales with content.
constexpr std::size_t kSegmentBloomHashes = 6;
constexpr std::uint64_t kSegmentBloomSeed = 0x5e67;
}  // namespace

hash::BloomFilter ImmutableSegment::build_bloom(
    std::span<const std::vector<std::uint64_t>> home_keys,
    double bits_per_key) {
  std::size_t pairs = 0;
  for (const auto& keys : home_keys) pairs += keys.size();
  const std::size_t bits = std::max<std::size_t>(
      64, static_cast<std::size_t>(static_cast<double>(pairs) *
                                   std::max(bits_per_key, 1.0)));
  hash::BloomFilter bloom(bits, kSegmentBloomHashes, kSegmentBloomSeed);
  for (const auto& keys : home_keys) {
    for (std::size_t t = 0; t < keys.size(); ++t) {
      bloom.insert_u64(key_fingerprint(t, keys[t]));
    }
  }
  return bloom;
}

void ImmutableSegment::serialize(util::ByteWriter& out) const {
  out.u64(id_);
  out.u8(bloom_.has_value() ? 1 : 0);
  if (bloom_.has_value()) {
    out.u64(bloom_->bit_count());
    out.u64(bloom_->hash_count());
    out.u64(bloom_->hash_seed());
    out.u64(bloom_->inserted_count());
    const auto words = bloom_->words();
    out.u64(words.size());
    for (const std::uint64_t w : words) out.u64(w);
  }
  state_->serialize(out);
}

std::shared_ptr<const ImmutableSegment> ImmutableSegment::deserialize(
    util::ByteReader& in, const FastConfig& config, std::size_t tables) {
  const std::uint64_t id = in.u64();
  const bool has_bloom = in.u8() != 0;
  std::optional<hash::BloomFilter> bloom;
  if (has_bloom) {
    const std::uint64_t bits = in.u64();
    const std::uint64_t k = in.u64();
    const std::uint64_t seed = in.u64();
    const std::uint64_t inserted = in.u64();
    const std::uint64_t word_count = in.u64();
    if (!in.ok() || bits == 0 || bits % 64 != 0 || k == 0 ||
        word_count != bits / 64 || word_count > in.remaining() / 8) {
      return nullptr;
    }
    std::vector<std::uint64_t> words;
    words.reserve(word_count);
    for (std::uint64_t i = 0; i < word_count; ++i) words.push_back(in.u64());
    if (!in.ok()) return nullptr;
    bloom = hash::BloomFilter::from_state(bits, k, seed, std::move(words),
                                          inserted);
  }
  auto state = std::make_shared<IndexLayer>(config, tables);
  if (!state->deserialize(in)) return nullptr;
  if (bloom.has_value()) {
    return std::make_shared<const ImmutableSegment>(
        id, std::shared_ptr<const IndexLayer>(std::move(state)),
        std::move(*bloom));
  }
  return std::make_shared<const ImmutableSegment>(
      id, std::shared_ptr<const IndexLayer>(std::move(state)));
}

}  // namespace fast::core

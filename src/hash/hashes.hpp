// Non-cryptographic hash primitives used across the Bloom, LSH and cuckoo
// layers: MurmurHash3 x64 128-bit (public domain, Austin Appleby), FNV-1a,
// and the Kirsch–Mitzenmacher double-hashing trick for generating the k
// Bloom probe positions from one 128-bit hash.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace fast::hash {

struct Hash128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

/// MurmurHash3 x64 variant producing 128 bits.
Hash128 murmur3_128(const void* data, std::size_t len,
                    std::uint64_t seed = 0) noexcept;

/// Convenience overloads.
inline Hash128 murmur3_128(std::string_view s, std::uint64_t seed = 0) noexcept {
  return murmur3_128(s.data(), s.size(), seed);
}
inline Hash128 murmur3_128(std::span<const float> v,
                           std::uint64_t seed = 0) noexcept {
  return murmur3_128(v.data(), v.size() * sizeof(float), seed);
}

/// 64-bit FNV-1a (used where a tiny dependency-free mix suffices).
std::uint64_t fnv1a_64(const void* data, std::size_t len) noexcept;

/// Finalization mix of SplitMix64: a strong 64 -> 64 bit scrambler for
/// integer keys (bucket ids, image ids). Inline: SA key derivation calls
/// it once per (set bit, salt) pair, and band keys, cuckoo candidates and
/// bucket hashing sit on the same hot paths.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The i-th derived hash g_i = lo + i * hi (Kirsch–Mitzenmacher): k
/// independent-enough probe values from a single 128-bit hash.
inline std::uint64_t derived_hash(const Hash128& h, std::size_t i) noexcept {
  return h.lo + static_cast<std::uint64_t>(i) * h.hi;
}

}  // namespace fast::hash

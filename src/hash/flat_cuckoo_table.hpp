// FAST's flat-structured cuckoo storage (the paper's CHS module, §III-C3).
//
// A naive use of cuckoo hashing under LSH suffers frequent displacement and
// a high rehash probability because correlated items hash to few distinct
// buckets. FAST extends each of the two candidate positions with a small
// window of adjacent slots ("adjacent neighboring storage"): an item may
// rest in any of the 2*W slots {h1..h1+W-1, h2..h2+W-1}. This is the
// associativity boost that lets the table sustain high load factors, cutting
// the insertion-failure (rehash) probability by ~3 orders of magnitude
// (Fig. 6) while keeping lookups at a fixed 2*W probes that are independent
// and can be issued in parallel on a multicore machine (Fig. 7).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "hash/hashes.hpp"
#include "hash/cuckoo_table.hpp"  // CuckooStats, ProbeProfile
#include "util/codec.hpp"
#include "util/rng.hpp"

namespace fast::hash {

struct FlatCuckooConfig {
  std::size_t capacity = 1024;   ///< total slots
  std::size_t window = 4;        ///< W: adjacent slots per candidate position
  std::size_t max_kicks = 500;   ///< displacement budget per insertion
  std::uint64_t seed = 0xfa57;
};

/// Upper bound on W so candidate sets fit a fixed stack buffer: the probe
/// path performs zero heap allocation (find/insert/erase used to fill a
/// std::vector per call).
inline constexpr std::size_t kMaxCuckooWindow = 32;

/// Stack-allocated set of the 2*W candidate slot indices of a key.
struct CandidateSet {
  std::array<std::size_t, 2 * kMaxCuckooWindow> slot;
  std::size_t count = 0;

  std::size_t size() const noexcept { return count; }
  std::size_t operator[](std::size_t i) const noexcept { return slot[i]; }
  const std::size_t* begin() const noexcept { return slot.data(); }
  const std::size_t* end() const noexcept { return slot.data() + count; }
};

class FlatCuckooTable {
 public:
  explicit FlatCuckooTable(const FlatCuckooConfig& config);

  std::size_t capacity() const noexcept { return slots_.size(); }
  std::size_t size() const noexcept { return size_; }
  double load_factor() const noexcept {
    return static_cast<double>(size_) / static_cast<double>(slots_.size());
  }
  std::size_t window() const noexcept { return window_; }
  const CuckooStats& stats() const noexcept { return stats_; }

  /// Inserts key -> value (overwrites if present, handing the old value to
  /// *replaced when given). Returns false when the displacement budget is
  /// exhausted; the table is rolled back exactly and the key is not stored.
  bool insert(std::uint64_t key, std::uint64_t value,
              std::optional<std::uint64_t>* replaced = nullptr);

  /// Probes the key's 2*W candidate slots. O(1) with a hard constant bound.
  /// When `profile` is non-null it accumulates the slots scanned and bytes
  /// touched (roofline accounting; see ProbeProfile).
  std::optional<std::uint64_t> find(
      std::uint64_t key, ProbeProfile* profile = nullptr) const noexcept;

  bool contains(std::uint64_t key) const noexcept {
    return find(key).has_value();
  }

  bool erase(std::uint64_t key) noexcept;

  /// Calls fn(key, value) for every stored pair, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.occupied) fn(s.key, s.value);
    }
  }

  /// Fixed probe count per lookup: 2 * W independent slot reads.
  std::size_t probes_per_lookup() const noexcept { return 2 * window_; }

  /// Modeled table bytes (Table IV accounting): key + value + occupancy
  /// marker per slot, matching the historical GroupStore formula.
  std::size_t memory_bytes() const noexcept {
    return slots_.size() * (2 * sizeof(std::uint64_t) + 1);
  }

  /// Verbatim dump of the table — salts, stats, and every slot — so a
  /// deserialized table answers every find() bit-identically. The kick RNG's
  /// position is NOT persisted (it only influences future victim choices,
  /// never lookup results); deserialize reseeds it deterministically.
  void serialize(util::ByteWriter& out) const;

  /// Inverse of serialize(). Returns nullopt on truncated or internally
  /// inconsistent input (occupancy count mismatch, zero capacity).
  static std::optional<FlatCuckooTable> deserialize(util::ByteReader& in);

 private:
  /// Uninitialized shell for deserialize() to fill.
  FlatCuckooTable() : window_(1), max_kicks_(0), salt1_(0), salt2_(0),
                      rng_(0) {}

  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t value = 0;
    bool occupied = false;
  };

  std::size_t base1(std::uint64_t key) const noexcept {
    return mix64(key ^ salt1_) % slots_.size();
  }
  std::size_t base2(std::uint64_t key) const noexcept {
    return mix64(key ^ salt2_) % slots_.size();
  }
  std::size_t wrap(std::size_t base, std::size_t offset) const noexcept {
    const std::size_t p = base + offset;
    return p < slots_.size() ? p : p - slots_.size();
  }

  /// Returns the 2*W candidate slot indices of `key` (stack buffer; the
  /// probe path never allocates).
  CandidateSet candidates(std::uint64_t key) const noexcept;

  std::vector<Slot> slots_;
  std::size_t window_;
  std::size_t max_kicks_;
  std::uint64_t salt1_;
  std::uint64_t salt2_;
  std::size_t size_ = 0;
  CuckooStats stats_;
  util::Rng rng_;
};

}  // namespace fast::hash

#include "hash/compact_flat_cuckoo_table.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace fast::hash {

namespace {
/// Serialization tag so compact bytes can never be confused with the
/// untagged FlatCuckooTable format (belt-and-braces on top of the
/// config-fingerprint gate in the snapshot layer).
constexpr std::uint32_t kCompactTableMagic = 0xCF570001;
}  // namespace

CompactFlatCuckooTable::CompactFlatCuckooTable(const FlatCuckooConfig& config)
    : fps_(std::max<std::size_t>(config.capacity, 4 * config.window), 0),
      refs_(std::max<std::size_t>(config.capacity, 4 * config.window), 0),
      window_(std::max<std::size_t>(config.window, 1)),
      max_kicks_(config.max_kicks),
      salt1_(mix64(config.seed ^ 0x517cc1b727220a95ULL)),
      salt2_(mix64(config.seed ^ 0x2545f4914f6cdd1dULL)),
      salt_fp_(mix64(config.seed ^ 0x94d049bb133111ebULL)),
      rng_(config.seed ^ 0xf1a7ULL) {
  // salt1_/salt2_ and the RNG seed mirror FlatCuckooTable exactly: identical
  // candidate sets and victim choices are what make the two backends
  // bit-identical under the same operation history.
  FAST_CHECK(config.window >= 1);
  FAST_CHECK(config.window <= kMaxCuckooWindow);
}

CandidateSet CompactFlatCuckooTable::candidates(
    std::uint64_t key) const noexcept {
  CandidateSet out;
  const std::size_t b1 = base1(key);
  const std::size_t b2 = base2(key);
  for (std::size_t w = 0; w < window_; ++w) out.slot[out.count++] = wrap(b1, w);
  for (std::size_t w = 0; w < window_; ++w) out.slot[out.count++] = wrap(b2, w);
  return out;
}

std::uint32_t CompactFlatCuckooTable::alloc_entry(std::uint64_t key,
                                                  std::uint64_t value) {
  if (!free_.empty()) {
    const std::uint32_t r = free_.back();
    free_.pop_back();
    side_keys_[r] = key;
    side_values_[r] = value;
    return r;
  }
  const auto r = static_cast<std::uint32_t>(side_keys_.size());
  side_keys_.push_back(key);
  side_values_.push_back(value);
  return r;
}

void CompactFlatCuckooTable::free_entry(std::uint32_t ref) noexcept {
  free_.push_back(ref);
}

bool CompactFlatCuckooTable::insert(std::uint64_t key, std::uint64_t value,
                                    std::optional<std::uint64_t>* replaced) {
  CandidateSet cand = candidates(key);
  const std::uint16_t fp = fingerprint(key);

  // Overwrite in place if present; otherwise take the first free slot.
  // Mirrors FlatCuckooTable::insert slot-for-slot: "occupied" is a nonzero
  // fingerprint, and a key match is fingerprint match + side-array verify.
  std::size_t free_slot = fps_.size();
  for (std::size_t p : cand) {
    if (fps_[p] != 0) {
      if (fps_[p] == fp) {
        if (side_keys_[refs_[p]] == key) {
          if (replaced != nullptr) *replaced = side_values_[refs_[p]];
          side_values_[refs_[p]] = value;
          return true;
        }
        ++stats_.fingerprint_false_hits;
      }
    } else if (free_slot == fps_.size()) {
      free_slot = p;
    }
  }
  if (free_slot != fps_.size()) {
    fps_[free_slot] = fp;
    refs_[free_slot] = alloc_entry(key, value);
    ++size_;
    ++stats_.inserts;
    return true;
  }

  // All 2W candidates full: displacement chain. The kick loop moves only
  // (fingerprint, ref) pairs — 6 bytes per displacement instead of a whole
  // slot — and draws victims from the same RNG stream as FlatCuckooTable.
  std::uint16_t cur_fp = fp;
  std::uint32_t cur_ref = alloc_entry(key, value);
  std::vector<std::size_t> chain;
  chain.reserve(std::min<std::size_t>(max_kicks_, 64));
  std::size_t kicks = 0;
  while (kicks < max_kicks_) {
    const std::size_t victim = cand[rng_.uniform_u64(cand.size())];
    std::swap(cur_fp, fps_[victim]);
    std::swap(cur_ref, refs_[victim]);
    chain.push_back(victim);
    ++kicks;

    // The displaced item looks for a free slot among ITS candidates.
    cand = candidates(side_keys_[cur_ref]);
    std::size_t free_p = fps_.size();
    for (std::size_t p : cand) {
      if (fps_[p] == 0) {
        free_p = p;
        break;
      }
    }
    if (free_p != fps_.size()) {
      fps_[free_p] = cur_fp;
      refs_[free_p] = cur_ref;
      ++size_;
      ++stats_.inserts;
      stats_.total_kicks += kicks;
      stats_.max_kick_chain = std::max(stats_.max_kick_chain, kicks);
      return true;
    }
  }

  // Roll back all swaps in reverse; afterwards cur_ref is the rejected
  // key's side entry again, which is returned to the free list.
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    std::swap(cur_fp, fps_[*it]);
    std::swap(cur_ref, refs_[*it]);
  }
  free_entry(cur_ref);
  ++stats_.failures;
  stats_.total_kicks += max_kicks_;
  stats_.max_kick_chain = std::max(stats_.max_kick_chain, max_kicks_);
  return false;
}

std::optional<std::uint64_t> CompactFlatCuckooTable::find(
    std::uint64_t key, ProbeProfile* profile) const noexcept {
  // SoA layout: the scan reads 2 bytes per candidate; the 4-byte ref and
  // 16-byte side entry are touched only behind a fingerprint match. False
  // hits are reported via the profile only — find() must stay free of
  // member writes because queries run concurrently under shared locks.
  const std::uint16_t fp = fingerprint(key);
  const std::size_t b1 = base1(key);
  for (std::size_t w = 0; w < window_; ++w) {
    const std::size_t p = wrap(b1, w);
    if (profile != nullptr) {
      ++profile->slots_scanned;
      profile->bytes_touched += sizeof(std::uint16_t);
    }
    if (fps_[p] == fp) {
      const std::uint32_t r = refs_[p];
      if (profile != nullptr) {
        profile->bytes_touched += sizeof(std::uint32_t) + sizeof(std::uint64_t);
      }
      if (side_keys_[r] == key) {
        if (profile != nullptr) profile->bytes_touched += sizeof(std::uint64_t);
        return side_values_[r];
      }
      if (profile != nullptr) ++profile->fingerprint_false_hits;
    }
  }
  const std::size_t b2 = base2(key);
  for (std::size_t w = 0; w < window_; ++w) {
    const std::size_t p = wrap(b2, w);
    if (profile != nullptr) {
      ++profile->slots_scanned;
      profile->bytes_touched += sizeof(std::uint16_t);
    }
    if (fps_[p] == fp) {
      const std::uint32_t r = refs_[p];
      if (profile != nullptr) {
        profile->bytes_touched += sizeof(std::uint32_t) + sizeof(std::uint64_t);
      }
      if (side_keys_[r] == key) {
        if (profile != nullptr) profile->bytes_touched += sizeof(std::uint64_t);
        return side_values_[r];
      }
      if (profile != nullptr) ++profile->fingerprint_false_hits;
    }
  }
  return std::nullopt;
}

bool CompactFlatCuckooTable::erase(std::uint64_t key) noexcept {
  const std::uint16_t fp = fingerprint(key);
  const auto try_erase = [&](std::size_t p) noexcept {
    if (fps_[p] != fp) return false;
    if (side_keys_[refs_[p]] != key) {
      ++stats_.fingerprint_false_hits;
      return false;
    }
    free_entry(refs_[p]);
    fps_[p] = 0;
    refs_[p] = 0;
    --size_;
    return true;
  };
  const std::size_t b1 = base1(key);
  for (std::size_t w = 0; w < window_; ++w) {
    if (try_erase(wrap(b1, w))) return true;
  }
  const std::size_t b2 = base2(key);
  for (std::size_t w = 0; w < window_; ++w) {
    if (try_erase(wrap(b2, w))) return true;
  }
  return false;
}

void CompactFlatCuckooTable::serialize(util::ByteWriter& out) const {
  out.u32(kCompactTableMagic);
  out.u64(fps_.size());
  out.u64(window_);
  out.u64(max_kicks_);
  out.u64(salt1_);
  out.u64(salt2_);
  out.u64(salt_fp_);
  out.u64(size_);
  out.u64(stats_.inserts);
  out.u64(stats_.failures);
  out.u64(stats_.total_kicks);
  out.u64(stats_.max_kick_chain);
  out.u64(stats_.fingerprint_false_hits);
  // Lanes packed one u64 per slot: fingerprint in the low 16 bits, side
  // index above it.
  for (std::size_t p = 0; p < fps_.size(); ++p) {
    out.u64(static_cast<std::uint64_t>(fps_[p]) |
            (static_cast<std::uint64_t>(refs_[p]) << 16));
  }
  out.u64(side_keys_.size());
  for (std::size_t i = 0; i < side_keys_.size(); ++i) {
    out.u64(side_keys_[i]);
    out.u64(side_values_[i]);
  }
  out.u64(free_.size());
  for (const std::uint32_t r : free_) out.u32(r);
}

std::optional<CompactFlatCuckooTable> CompactFlatCuckooTable::deserialize(
    util::ByteReader& in) {
  if (in.u32() != kCompactTableMagic || !in.ok()) return std::nullopt;
  CompactFlatCuckooTable table;
  const std::uint64_t capacity = in.u64();
  table.window_ = in.u64();
  table.max_kicks_ = in.u64();
  table.salt1_ = in.u64();
  table.salt2_ = in.u64();
  table.salt_fp_ = in.u64();
  table.size_ = in.u64();
  table.stats_.inserts = in.u64();
  table.stats_.failures = in.u64();
  table.stats_.total_kicks = in.u64();
  table.stats_.max_kick_chain = in.u64();
  table.stats_.fingerprint_false_hits = in.u64();
  if (!in.ok() || capacity == 0 || table.window_ == 0 ||
      table.window_ > kMaxCuckooWindow ||
      capacity > in.remaining() / 8) {  // 8 bytes per serialized slot word
    return std::nullopt;
  }
  table.fps_.resize(capacity);
  table.refs_.resize(capacity);
  std::size_t occupied = 0;
  for (std::size_t p = 0; p < capacity; ++p) {
    const std::uint64_t word = in.u64();
    table.fps_[p] = static_cast<std::uint16_t>(word & 0xffff);
    table.refs_[p] = static_cast<std::uint32_t>(word >> 16);
    if (table.fps_[p] != 0) ++occupied;
  }
  const std::uint64_t side = in.u64();
  if (!in.ok() || occupied != table.size_ || side > in.remaining() / 16) {
    return std::nullopt;
  }
  table.side_keys_.resize(side);
  table.side_values_.resize(side);
  for (std::uint64_t i = 0; i < side; ++i) {
    table.side_keys_[i] = in.u64();
    table.side_values_[i] = in.u64();
  }
  const std::uint64_t free_count = in.u64();
  if (!in.ok() || free_count > in.remaining() / 4 ||
      table.size_ + free_count != side) {
    return std::nullopt;
  }
  table.free_.resize(free_count);
  for (std::uint64_t i = 0; i < free_count; ++i) table.free_[i] = in.u32();
  // Every side entry must be referenced exactly once, by either an occupied
  // slot or the free list — catches ref corruption before it becomes an OOB.
  std::vector<std::uint8_t> used(side, 0);
  const auto claim = [&](std::uint32_t r) {
    if (r >= side || used[r] != 0) return false;
    used[r] = 1;
    return true;
  };
  for (std::size_t p = 0; p < capacity; ++p) {
    if (table.fps_[p] != 0 && !claim(table.refs_[p])) return std::nullopt;
  }
  for (const std::uint32_t r : table.free_) {
    if (!claim(r)) return std::nullopt;
  }
  if (!in.ok()) return std::nullopt;
  // Fresh deterministic kick RNG, matching FlatCuckooTable::deserialize so
  // post-recovery insert histories stay in lockstep across backends.
  table.rng_.reseed(table.salt1_ ^ 0xf1a7ULL);
  return table;
}

}  // namespace fast::hash

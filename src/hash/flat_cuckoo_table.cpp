#include "hash/flat_cuckoo_table.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace fast::hash {

FlatCuckooTable::FlatCuckooTable(const FlatCuckooConfig& config)
    : slots_(std::max<std::size_t>(config.capacity, 4 * config.window)),
      window_(std::max<std::size_t>(config.window, 1)),
      max_kicks_(config.max_kicks),
      salt1_(mix64(config.seed ^ 0x517cc1b727220a95ULL)),
      salt2_(mix64(config.seed ^ 0x2545f4914f6cdd1dULL)),
      rng_(config.seed ^ 0xf1a7ULL) {
  FAST_CHECK(config.window >= 1);
  FAST_CHECK(config.window <= kMaxCuckooWindow);
}

CandidateSet FlatCuckooTable::candidates(std::uint64_t key) const noexcept {
  CandidateSet out;
  const std::size_t b1 = base1(key);
  const std::size_t b2 = base2(key);
  for (std::size_t w = 0; w < window_; ++w) out.slot[out.count++] = wrap(b1, w);
  for (std::size_t w = 0; w < window_; ++w) out.slot[out.count++] = wrap(b2, w);
  return out;
}

bool FlatCuckooTable::insert(std::uint64_t key, std::uint64_t value,
                             std::optional<std::uint64_t>* replaced) {
  CandidateSet cand = candidates(key);

  // Overwrite in place if present; otherwise take the first free slot.
  std::size_t free_slot = slots_.size();
  for (std::size_t p : cand) {
    if (slots_[p].occupied && slots_[p].key == key) {
      if (replaced != nullptr) *replaced = slots_[p].value;
      slots_[p].value = value;
      return true;
    }
    if (!slots_[p].occupied && free_slot == slots_.size()) free_slot = p;
  }
  if (free_slot != slots_.size()) {
    slots_[free_slot] = Slot{key, value, true};
    ++size_;
    ++stats_.inserts;
    return true;
  }

  // All 2W candidates full: displacement chain. Kick a random candidate;
  // the displaced item retries within its own candidate set. Swaps are
  // logged so a failed insert rolls back exactly.
  std::uint64_t cur_key = key;
  std::uint64_t cur_value = value;
  std::vector<std::size_t> chain;
  chain.reserve(std::min<std::size_t>(max_kicks_, 64));
  std::size_t kicks = 0;
  while (kicks < max_kicks_) {
    // Choose a victim slot among the current item's candidates.
    const std::size_t victim =
        cand[rng_.uniform_u64(cand.size())];
    std::swap(cur_key, slots_[victim].key);
    std::swap(cur_value, slots_[victim].value);
    chain.push_back(victim);
    ++kicks;

    // The displaced item looks for a free slot among ITS candidates.
    cand = candidates(cur_key);
    std::size_t free_p = slots_.size();
    for (std::size_t p : cand) {
      if (!slots_[p].occupied) {
        free_p = p;
        break;
      }
    }
    if (free_p != slots_.size()) {
      slots_[free_p] = Slot{cur_key, cur_value, true};
      ++size_;
      ++stats_.inserts;
      stats_.total_kicks += kicks;
      stats_.max_kick_chain = std::max(stats_.max_kick_chain, kicks);
      return true;
    }
    // No free slot: loop and kick again from the displaced item's set.
  }

  // Roll back all swaps in reverse; the table returns to its exact
  // pre-insert state and the new key is rejected (rehash event).
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    std::swap(cur_key, slots_[*it].key);
    std::swap(cur_value, slots_[*it].value);
  }
  ++stats_.failures;
  stats_.total_kicks += max_kicks_;
  stats_.max_kick_chain = std::max(stats_.max_kick_chain, max_kicks_);
  return false;
}

std::optional<std::uint64_t> FlatCuckooTable::find(
    std::uint64_t key, ProbeProfile* profile) const noexcept {
  // AoS layout: every examined candidate drags a whole padded Slot through
  // the cache, whether or not the key matches.
  const std::size_t b1 = base1(key);
  for (std::size_t w = 0; w < window_; ++w) {
    const Slot& s = slots_[wrap(b1, w)];
    if (profile != nullptr) {
      ++profile->slots_scanned;
      profile->bytes_touched += sizeof(Slot);
    }
    if (s.occupied && s.key == key) return s.value;
  }
  const std::size_t b2 = base2(key);
  for (std::size_t w = 0; w < window_; ++w) {
    const Slot& s = slots_[wrap(b2, w)];
    if (profile != nullptr) {
      ++profile->slots_scanned;
      profile->bytes_touched += sizeof(Slot);
    }
    if (s.occupied && s.key == key) return s.value;
  }
  return std::nullopt;
}

void FlatCuckooTable::serialize(util::ByteWriter& out) const {
  out.u64(slots_.size());
  out.u64(window_);
  out.u64(max_kicks_);
  out.u64(salt1_);
  out.u64(salt2_);
  out.u64(size_);
  out.u64(stats_.inserts);
  out.u64(stats_.failures);
  out.u64(stats_.total_kicks);
  out.u64(stats_.max_kick_chain);
  for (const Slot& slot : slots_) {
    out.u64(slot.key);
    out.u64(slot.value);
    out.u8(slot.occupied ? 1 : 0);
  }
}

std::optional<FlatCuckooTable> FlatCuckooTable::deserialize(
    util::ByteReader& in) {
  FlatCuckooTable table;
  const std::uint64_t capacity = in.u64();
  table.window_ = in.u64();
  table.max_kicks_ = in.u64();
  table.salt1_ = in.u64();
  table.salt2_ = in.u64();
  table.size_ = in.u64();
  table.stats_.inserts = in.u64();
  table.stats_.failures = in.u64();
  table.stats_.total_kicks = in.u64();
  table.stats_.max_kick_chain = in.u64();
  if (!in.ok() || capacity == 0 || table.window_ == 0 ||
      capacity > in.remaining() / 17) {  // 17 bytes per serialized slot
    return std::nullopt;
  }
  table.slots_.resize(capacity);
  std::size_t occupied = 0;
  for (Slot& slot : table.slots_) {
    slot.key = in.u64();
    slot.value = in.u64();
    slot.occupied = in.u8() != 0;
    if (slot.occupied) ++occupied;
  }
  if (!in.ok() || occupied != table.size_) return std::nullopt;
  // Fresh deterministic kick RNG; see serialize() for why this is sound.
  table.rng_.reseed(table.salt1_ ^ 0xf1a7ULL);
  return table;
}

bool FlatCuckooTable::erase(std::uint64_t key) noexcept {
  const std::size_t b1 = base1(key);
  for (std::size_t w = 0; w < window_; ++w) {
    Slot& s = slots_[wrap(b1, w)];
    if (s.occupied && s.key == key) {
      s = Slot{};
      --size_;
      return true;
    }
  }
  const std::size_t b2 = base2(key);
  for (std::size_t w = 0; w < window_; ++w) {
    Slot& s = slots_[wrap(b2, w)];
    if (s.occupied && s.key == key) {
      s = Slot{};
      --size_;
      return true;
    }
  }
  return false;
}

}  // namespace fast::hash

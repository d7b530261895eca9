#include "hash/signature_slab.hpp"

#include <algorithm>
#include <new>

#include "util/check.hpp"

namespace fast::hash {

SignatureSlab::SignatureSlab(std::uint32_t bit_count)
    : bit_count_(bit_count),
      words_per_bitmap_((static_cast<std::size_t>(bit_count) + 63) / 64),
      block_stride_((words_per_bitmap_ + 7) / 8 * 8) {}

std::uint32_t SignatureSlab::take_block() {
  if (!free_blocks_.empty()) {
    const std::uint32_t block = free_blocks_.back();
    free_blocks_.pop_back();
    return block;
  }
  if (blocks_used_ == chunks_.size() * kBitmapsPerChunk) {
    // Left uninitialized: add() writes every word of a block it hands out,
    // so pages of blocks not yet used stay untouched.
    const std::size_t bytes =
        kBitmapsPerChunk * block_stride_ * sizeof(std::uint64_t);
    auto* chunk = static_cast<std::uint64_t*>(std::aligned_alloc(64, bytes));
    if (chunk == nullptr) throw std::bad_alloc();
    chunks_.emplace_back(chunk);
  }
  return blocks_used_++;
}

std::uint32_t SignatureSlab::add(std::uint64_t id,
                                 const SparseSignature& signature) {
  FAST_CHECK(signature.bit_count() == bit_count_);
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    FAST_CHECK(slots_.size() < kFreeSlot);
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    lists_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.id = id;
  s.popcount = static_cast<std::uint32_t>(signature.popcount());
  if (PackedSignature::stays_sparse(signature.popcount(), bit_count_)) {
    s.block = kListBlock;
    lists_[slot] = signature.set_bits();
  } else {
    s.block = take_block();
    std::uint64_t* words = block_words(s.block);
    std::fill_n(words, words_per_bitmap_, 0);
    for (const std::uint32_t b : signature.set_bits()) {
      words[b >> 6] |= std::uint64_t{1} << (b & 63);
    }
  }
  ++live_;
  return slot;
}

void SignatureSlab::remove(std::uint32_t slot) {
  FAST_CHECK(live(slot));
  Slot& s = slots_[slot];
  if (s.block == kListBlock) {
    std::vector<std::uint32_t>().swap(lists_[slot]);
  } else {
    free_blocks_.push_back(s.block);
  }
  s.block = kFreeSlot;
  free_slots_.push_back(slot);
  --live_;
}

}  // namespace fast::hash

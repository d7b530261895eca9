// Slot-addressed store of at-rest summaries (FastIndex's signature table).
//
// The flat index used to keep one PackedSignature per id in an
// unordered_map: ranking a candidate cost a hash lookup, a node chase and a
// chase to the summary's own heap bitmap. The slab gives every stored
// summary a dense u32 slot instead. Correlation groups hold slots, so a
// query reaches a candidate's id, popcount and bitmap by indexing, and can
// prefetch the next candidates' bitmaps while it scores the current one.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <vector>

#include "hash/sparse_signature.hpp"

namespace fast::hash {

/// Slots of one signature width. Each live slot holds an id and its
/// summary in PackedSignature's form, chosen by the same density rule
/// (PackedSignature::stays_sparse): a sorted set-bit list when sparse,
/// otherwise a bitmap in a block of a fixed-size chunk. Chunks are never
/// reallocated or moved, so growth copies no bitmap and a bitmap's address
/// is stable for the life of its slot. Removed slots and bitmap blocks are
/// recycled, most recently freed first. Not synchronized: readers may run
/// concurrently only while no add() or remove() does.
class SignatureSlab {
 public:
  /// Bitmaps per chunk: 128 KB of bitmaps at the default 16,384-bit width.
  static constexpr std::size_t kBitmapsPerChunk = 64;

  explicit SignatureSlab(std::uint32_t bit_count);

  std::uint32_t bit_count() const noexcept { return bit_count_; }
  /// Live slots.
  std::size_t size() const noexcept { return live_; }
  /// Every slot, live or free, is below this bound.
  std::size_t slot_limit() const noexcept { return slots_.size(); }
  std::size_t chunk_count() const noexcept { return chunks_.size(); }

  /// Stores `signature` (which must have bit_count() bits) under `id` in a
  /// free slot and returns the slot. Ids are not checked for uniqueness.
  std::uint32_t add(std::uint64_t id, const SparseSignature& signature);
  /// Frees a live slot, and its bitmap block when it has one.
  void remove(std::uint32_t slot);

  bool live(std::uint32_t slot) const noexcept {
    return slot < slots_.size() && slots_[slot].block != kFreeSlot;
  }
  std::uint64_t id(std::uint32_t slot) const noexcept {
    return slots_[slot].id;
  }
  std::size_t popcount(std::uint32_t slot) const noexcept {
    return slots_[slot].popcount;
  }
  /// The summary of a live slot: its bitmap when dense, else its list.
  PackedView view(std::uint32_t slot) const noexcept {
    const Slot& s = slots_[slot];
    if (s.block == kListBlock) {
      return PackedView(bit_count_, s.popcount, lists_[slot], {});
    }
    return PackedView(bit_count_, s.popcount, {},
                      {block_words(s.block), words_per_bitmap_});
  }

  /// Asks the cache for every line of a live slot's bitmap or list.
  void prefetch(std::uint32_t slot) const noexcept {
    const PackedView v = view(slot);
    const auto* begin = reinterpret_cast<const char*>(
        v.dense() ? static_cast<const void*>(v.words().data())
                  : static_cast<const void*>(v.set_bits().data()));
    const std::size_t bytes =
        v.dense() ? v.words().size_bytes() : v.set_bits().size_bytes();
    for (std::size_t off = 0; off < bytes; off += 64) {
      __builtin_prefetch(begin + off);
    }
  }

  SparseSignature unpack(std::uint32_t slot) const {
    return view(slot).unpack();
  }
  /// Byte-identical to PackedSignature(unpack(slot)).encode().
  std::vector<std::uint8_t> encode(std::uint32_t slot) const {
    return view(slot).encode();
  }
  std::size_t storage_bytes(std::uint32_t slot) const noexcept {
    return view(slot).storage_bytes();
  }

 private:
  static constexpr std::uint32_t kListBlock = UINT32_MAX;
  static constexpr std::uint32_t kFreeSlot = UINT32_MAX - 1;

  struct Slot {
    std::uint64_t id = 0;
    std::uint32_t popcount = 0;
    std::uint32_t block = kFreeSlot;  // bitmap block, kListBlock or kFreeSlot
  };

  struct FreeChunk {
    void operator()(std::uint64_t* p) const noexcept { std::free(p); }
  };

  std::uint64_t* block_words(std::uint32_t block) const noexcept {
    return chunks_[block / kBitmapsPerChunk].get() +
           (block % kBitmapsPerChunk) * block_stride_;
  }
  std::uint32_t take_block();

  std::uint32_t bit_count_ = 0;
  std::size_t words_per_bitmap_ = 0;
  // Words from one block to the next: whole 64-byte lines, so every bitmap
  // starts on a cache line.
  std::size_t block_stride_ = 0;
  std::size_t live_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::vector<std::uint32_t>> lists_;  // by slot; list form only
  std::vector<std::unique_ptr<std::uint64_t[], FreeChunk>> chunks_;
  std::uint32_t blocks_used_ = 0;  // blocks ever handed out
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> free_blocks_;
};

}  // namespace fast::hash

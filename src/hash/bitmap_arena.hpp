// Process-wide arena of huge-page-backed chunks for SignatureSlab bitmaps.
//
// A served query scores a few hundred 2 KB candidate bitmaps scattered
// over the slab's chunks. On 4 KB pages nearly every candidate costs a page
// walk that no data prefetch hides (DESIGN.md §3s), so the arena maps
// 2 MiB-aligned regions, asks the kernel to back them with transparent huge
// pages (madvise(MADV_HUGEPAGE); a no-op where THP is off), and cuts each
// into fixed-size chunks. Every slab of the process shares it, so a small
// slab takes one chunk, not a huge page of its own. A region is unmapped as
// soon as its last chunk comes back, so the mapping tracks live chunks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace fast::hash {

class BitmapArena {
 public:
  /// One transparent huge page on x86-64.
  static constexpr std::size_t kRegionBytes = std::size_t{2} << 20;
  static constexpr std::size_t kChunkBytes = std::size_t{128} << 10;
  static constexpr std::size_t kChunksPerRegion = kRegionBytes / kChunkBytes;

  /// The arena every SignatureSlab allocates from unless handed another.
  /// Never destroyed (leaked on purpose), so slabs that die during static
  /// destruction can still give their chunks back.
  static BitmapArena& global();

  BitmapArena() = default;
  /// Unmaps every region; every allocation must have been released.
  ~BitmapArena();
  BitmapArena(const BitmapArena&) = delete;
  BitmapArena& operator=(const BitmapArena&) = delete;

  /// Uninitialized memory for `bytes`. Up to kChunkBytes it is one chunk of
  /// a shared region, kChunkBytes-aligned; a wider request gets a region of
  /// its own, kRegionBytes-aligned and rounded up to whole kRegionBytes.
  /// Throws std::bad_alloc when no region can be mapped.
  void* allocate(std::size_t bytes = kChunkBytes);
  /// Returns memory from allocate(); unmaps its region if nothing else in
  /// it is in use.
  void release(void* p) noexcept;

  /// Regions mapped now.
  std::size_t regions() const;
  /// Allocations handed out and not yet released: chunks of shared regions
  /// plus wide regions, one each.
  std::size_t chunks_in_use() const;

 private:
  struct Region {
    char* base = nullptr;
    std::size_t bytes = kRegionBytes;
    std::uint32_t used = 0;  // bit c set: chunk c is handed out
    bool wide = false;       // one allocation owns all `bytes`
  };
  static_assert(kChunksPerRegion <= 32);

  mutable std::mutex mu_;
  std::vector<Region> regions_;  // in mapping order
};

}  // namespace fast::hash

#include "hash/bitmap_arena.hpp"

#include <sys/mman.h>

#include <bit>
#include <cstdint>
#include <new>

#include "util/check.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define FAST_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define FAST_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define FAST_POISON(p, n) ((void)(p), (void)(n))
#define FAST_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace fast::hash {

namespace {

constexpr std::uint32_t kAllChunks =
    BitmapArena::kChunksPerRegion == 32
        ? UINT32_MAX
        : (std::uint32_t{1} << BitmapArena::kChunksPerRegion) - 1;

// `bytes` (a multiple of kRegionBytes) mapped on a kRegionBytes boundary:
// over-map by one region and trim both ends, so the kernel can back it
// with huge pages.
char* map_region(std::size_t bytes) {
  const std::size_t span = bytes + BitmapArena::kRegionBytes;
  void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto start = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t aligned =
      (start + BitmapArena::kRegionBytes - 1) &
      ~(std::uintptr_t{BitmapArena::kRegionBytes} - 1);
  if (aligned > start) ::munmap(raw, aligned - start);
  const std::uintptr_t tail = aligned + bytes;
  if (tail < start + span) {
    ::munmap(reinterpret_cast<void*>(tail), start + span - tail);
  }
  char* base = reinterpret_cast<char*>(aligned);
  // Fails only where the kernel has no THP; the region then stays on small
  // pages, as any other heap memory would.
  (void)::madvise(base, bytes, MADV_HUGEPAGE);
  return base;
}

}  // namespace

BitmapArena& BitmapArena::global() {
  static BitmapArena* arena = new BitmapArena();
  return *arena;
}

BitmapArena::~BitmapArena() {
  for (const Region& r : regions_) {
    FAST_CHECK_MSG(r.used == 0, "bitmap arena destroyed with chunks in use");
    FAST_UNPOISON(r.base, r.bytes);
    ::munmap(r.base, r.bytes);
  }
}

void* BitmapArena::allocate(std::size_t bytes) {
  if (bytes > kChunkBytes) {
    const std::size_t whole =
        (bytes + kRegionBytes - 1) / kRegionBytes * kRegionBytes;
    char* base = map_region(whole);
    std::lock_guard lock(mu_);
    regions_.push_back(Region{base, whole, kAllChunks, true});
    return base;
  }
  std::lock_guard lock(mu_);
  Region* region = nullptr;
  for (Region& r : regions_) {
    if (r.used != kAllChunks) {
      region = &r;
      break;
    }
  }
  if (region == nullptr) {
    char* base = map_region(kRegionBytes);
    FAST_POISON(base, kRegionBytes);
    regions_.push_back(Region{base, kRegionBytes, 0, false});
    region = &regions_.back();
  }
  const int c = std::countr_one(region->used);
  region->used |= std::uint32_t{1} << c;
  char* chunk = region->base + static_cast<std::size_t>(c) * kChunkBytes;
  FAST_UNPOISON(chunk, kChunkBytes);
  return chunk;
}

void BitmapArena::release(void* p) noexcept {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  char* base = reinterpret_cast<char*>(
      addr & ~(std::uintptr_t{kRegionBytes} - 1));
  const auto c = static_cast<std::uint32_t>(
      (addr - reinterpret_cast<std::uintptr_t>(base)) / kChunkBytes);
  std::lock_guard lock(mu_);
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    Region& r = regions_[i];
    if (r.base != base) continue;
    if (r.wide) {
      FAST_CHECK_MSG(c == 0, "pointer inside a wide bitmap region");
      r.used = 0;
    } else {
      FAST_CHECK_MSG((r.used >> c) & 1, "bitmap chunk released twice");
      r.used &= ~(std::uint32_t{1} << c);
      FAST_POISON(p, kChunkBytes);
    }
    if (r.used == 0) {
      FAST_UNPOISON(r.base, r.bytes);
      ::munmap(r.base, r.bytes);
      regions_.erase(regions_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    return;
  }
  FAST_CHECK_MSG(false, "chunk not from this bitmap arena");
}

std::size_t BitmapArena::regions() const {
  std::lock_guard lock(mu_);
  return regions_.size();
}

std::size_t BitmapArena::chunks_in_use() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const Region& r : regions_) {
    n += r.wide ? 1 : static_cast<std::size_t>(std::popcount(r.used));
  }
  return n;
}

}  // namespace fast::hash

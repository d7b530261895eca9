#include "hash/sparse_signature.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "hash/signature_slab.hpp"
#include "util/check.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define FAST_POPCOUNT_X86 1
#include <immintrin.h>
#endif

namespace fast::hash {

SparseSignature::SparseSignature(const BloomFilter& filter)
    : bit_count_(static_cast<std::uint32_t>(filter.bit_count())) {
  const auto words = filter.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t word = words[w];
    while (word) {
      const int bit = std::countr_zero(word);
      bits_.push_back(static_cast<std::uint32_t>(w * 64 +
                                                 static_cast<std::size_t>(bit)));
      word &= word - 1;
    }
  }
}

SparseSignature::SparseSignature(std::vector<std::uint32_t> set_bits,
                                 std::uint32_t bit_count)
    : bit_count_(bit_count), bits_(std::move(set_bits)) {
  FAST_CHECK(std::is_sorted(bits_.begin(), bits_.end()));
  FAST_CHECK(std::adjacent_find(bits_.begin(), bits_.end()) == bits_.end());
  FAST_CHECK(bits_.empty() || bits_.back() < bit_count_);
}

std::size_t SparseSignature::overlap(const SparseSignature& a,
                                     const SparseSignature& b) noexcept {
  std::size_t n = 0;
  auto ia = a.bits_.begin();
  auto ib = b.bits_.begin();
  while (ia != a.bits_.end() && ib != b.bits_.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++n;
      ++ia;
      ++ib;
    }
  }
  return n;
}

std::size_t SparseSignature::hamming(const SparseSignature& a,
                                     const SparseSignature& b) noexcept {
  const std::size_t common = overlap(a, b);
  return a.bits_.size() + b.bits_.size() - 2 * common;
}

double SparseSignature::jaccard(const SparseSignature& a,
                                const SparseSignature& b) noexcept {
  const std::size_t common = overlap(a, b);
  const std::size_t uni = a.bits_.size() + b.bits_.size() - common;
  if (uni == 0) return 1.0;
  return static_cast<double>(common) / static_cast<double>(uni);
}

namespace {

void put_varint(std::vector<std::uint8_t>& out, std::uint32_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint32_t get_varint(std::span<const std::uint8_t> bytes,
                         std::size_t& pos) {
  std::uint32_t v = 0;
  int shift = 0;
  for (;;) {
    if (pos >= bytes.size() || shift > 28) {
      throw std::runtime_error("SparseSignature: malformed varint");
    }
    const std::uint8_t b = bytes[pos++];
    v |= static_cast<std::uint32_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

std::size_t varint_len(std::uint32_t v) noexcept {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

// The wire format is [bit_count varint][entry count varint][delta
// varints]. Both signature forms share it: `for_each` calls its argument
// once per set bit, in ascending order.
template <typename ForEach>
std::vector<std::uint8_t> encode_set_bits(std::uint32_t bit_count,
                                          std::size_t popcount,
                                          ForEach&& for_each) {
  std::vector<std::uint8_t> out;
  out.reserve(2 + popcount + 8);
  put_varint(out, bit_count);
  put_varint(out, static_cast<std::uint32_t>(popcount));
  std::uint32_t prev = 0;
  for_each([&](std::uint32_t b) {
    put_varint(out, b - prev);  // first delta is the absolute position
    prev = b;
  });
  return out;
}

// Exact encode_set_bits() size without materializing the buffer.
template <typename ForEach>
std::size_t encoded_size(std::uint32_t bit_count, std::size_t popcount,
                         ForEach&& for_each) noexcept {
  std::size_t total =
      varint_len(bit_count) + varint_len(static_cast<std::uint32_t>(popcount));
  std::uint32_t prev = 0;
  for_each([&](std::uint32_t b) {
    total += varint_len(b - prev);
    prev = b;
  });
  return total;
}

}  // namespace

std::vector<std::uint8_t> SparseSignature::encode() const {
  return encode_set_bits(bit_count_, bits_.size(), [&](auto&& visit) {
    for (const std::uint32_t b : bits_) visit(b);
  });
}

SparseSignature SparseSignature::decode(std::span<const std::uint8_t> bytes) {
  std::size_t pos = 0;
  const std::uint32_t bit_count = get_varint(bytes, pos);
  const std::uint32_t n = get_varint(bytes, pos);
  // Every bit costs at least one encoded byte, so a count above the
  // remaining input is hostile — reject before reserving.
  if (n > bytes.size() - pos) {
    throw std::runtime_error("SparseSignature: bit count exceeds input");
  }
  std::vector<std::uint32_t> bits;
  bits.reserve(n);
  // Validate while reconstructing: the constructor's sorted/unique/range
  // invariants must hold for untrusted input too, as a catchable error
  // rather than a process abort. Accumulate in 64 bits so hostile deltas
  // cannot wrap back into sorted order.
  std::uint64_t prev = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t delta = get_varint(bytes, pos);
    if (i > 0 && delta == 0) {
      throw std::runtime_error("SparseSignature: duplicate bit");
    }
    prev += delta;
    if (prev >= bit_count) {
      throw std::runtime_error("SparseSignature: bit out of range");
    }
    bits.push_back(static_cast<std::uint32_t>(prev));
  }
  return SparseSignature(std::move(bits), bit_count);
}

std::size_t SparseSignature::storage_bytes() const noexcept {
  return encoded_size(bit_count_, bits_.size(), [&](auto&& visit) {
    for (const std::uint32_t b : bits_) visit(b);
  });
}

std::vector<float> SparseSignature::to_float_vector() const {
  std::vector<float> v(bit_count_, 0.0f);
  for (std::uint32_t b : bits_) v[b] = 1.0f;
  return v;
}

// --- PackedSignature -------------------------------------------------------

PackedSignature::PackedSignature(const SparseSignature& signature)
    : bit_count_(signature.bit_count()),
      popcount_(static_cast<std::uint32_t>(signature.popcount())) {
  if (stays_sparse(popcount_, bit_count_)) {
    bits_ = signature.set_bits();
    return;
  }
  words_.assign((static_cast<std::size_t>(bit_count_) + 63) / 64, 0);
  for (const std::uint32_t b : signature.set_bits()) {
    words_[b >> 6] |= std::uint64_t{1} << (b & 63);
  }
}

// --- PackedView ------------------------------------------------------------

template <typename Fn>
void PackedView::for_each_set_bit(Fn&& fn) const {
  if (!dense()) {
    for (const std::uint32_t b : bits_) fn(b);
    return;
  }
  for (std::size_t w = 0; w < words_.size(); ++w) {
    for (std::uint64_t word = words_[w]; word != 0; word &= word - 1) {
      fn(static_cast<std::uint32_t>(w * 64 + static_cast<std::size_t>(
                                                 std::countr_zero(word))));
    }
  }
}

SparseSignature PackedView::unpack() const {
  if (!dense()) {
    return SparseSignature(std::vector<std::uint32_t>(bits_.begin(),
                                                      bits_.end()),
                           bit_count_);
  }
  std::vector<std::uint32_t> bits;
  bits.reserve(popcount_);
  for_each_set_bit([&](std::uint32_t b) { bits.push_back(b); });
  return SparseSignature(std::move(bits), bit_count_);
}

std::vector<std::uint8_t> PackedView::encode() const {
  return encode_set_bits(bit_count_, popcount_, [&](auto&& visit) {
    for_each_set_bit(visit);
  });
}

std::size_t PackedView::storage_bytes() const noexcept {
  return encoded_size(bit_count_, popcount_, [&](auto&& visit) {
    for_each_set_bit(visit);
  });
}

// --- popcount(Q & C) word kernels ------------------------------------------

namespace {

std::size_t and_popcount_portable(const std::uint64_t* a,
                                  const std::uint64_t* b, std::size_t n) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    count += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
  }
  return count;
}

// The ISA kernels are selected with __builtin_cpu_supports and reached
// through a function pointer, not with target_clones: the x86-64-v4 clone
// level lacks VPOPCNTDQ, and an arch=<cpu> clone is chosen by CPU model,
// which virtual machines often do not report, so it would silently fall
// back to the default clone. A plain runtime check also stays clear of
// the ifunc resolver that TSan builds cannot run.
#ifdef FAST_POPCOUNT_X86
__attribute__((target("popcnt"))) std::size_t and_popcount_popcnt(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    count += static_cast<std::size_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return count;
}

__attribute__((target("avx512f,avx512vpopcntdq,popcnt"))) std::size_t
and_popcount_avx512(const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i both = _mm512_and_si512(_mm512_loadu_si512(a + i),
                                          _mm512_loadu_si512(b + i));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(both));
  }
  // Lane sum through memory: GCC 12's _mm512_reduce_add_epi64 trips
  // -Wuninitialized inside its own header.
  std::uint64_t lanes[8];
  _mm512_storeu_si512(lanes, acc);
  std::size_t count = 0;
  for (const std::uint64_t lane : lanes) count += lane;
  for (; i < n; ++i) {
    count += static_cast<std::size_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return count;
}
#endif

PopcountKernel detect_popcount_kernel() noexcept {
  for (const PopcountKernel k :
       {PopcountKernel::kAvx512, PopcountKernel::kPopcnt}) {
    if (popcount_kernel_supported(k)) return k;
  }
  return PopcountKernel::kPortable;
}

}  // namespace

bool popcount_kernel_supported(PopcountKernel kernel) noexcept {
  switch (kernel) {
    case PopcountKernel::kPortable:
      return true;
#ifdef FAST_POPCOUNT_X86
    case PopcountKernel::kPopcnt:
      __builtin_cpu_init();
      return __builtin_cpu_supports("popcnt");
    case PopcountKernel::kAvx512:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512vpopcntdq") &&
             __builtin_cpu_supports("popcnt");
#endif
    default:
      return false;
  }
}

PopcountKernel best_popcount_kernel() noexcept {
  static const PopcountKernel kernel = detect_popcount_kernel();
  return kernel;
}

const char* popcount_kernel_name(PopcountKernel kernel) noexcept {
  switch (kernel) {
    case PopcountKernel::kPortable:
      return "portable";
    case PopcountKernel::kPopcnt:
      return "popcnt";
    case PopcountKernel::kAvx512:
      return "avx512vpopcntdq";
  }
  return "unknown";
}

// --- JaccardScorer ---------------------------------------------------------

JaccardScorer::JaccardScorer(const SparseSignature& query,
                             PopcountKernel kernel)
    : bit_count_(query.bit_count()),
      popcount_(query.popcount()),
      words_((static_cast<std::size_t>(query.bit_count()) + 63) / 64, 0) {
  FAST_CHECK_MSG(popcount_kernel_supported(kernel),
                 "popcount kernel not supported by this CPU");
  switch (kernel) {
#ifdef FAST_POPCOUNT_X86
    case PopcountKernel::kPopcnt:
      and_popcount_ = &and_popcount_popcnt;
      break;
    case PopcountKernel::kAvx512:
      and_popcount_ = &and_popcount_avx512;
      break;
#endif
    default:
      and_popcount_ = &and_popcount_portable;
  }
  for (const std::uint32_t b : query.set_bits()) {
    words_[b >> 6] |= std::uint64_t{1} << (b & 63);
  }
}

std::size_t JaccardScorer::overlap_bits(
    std::span<const std::uint32_t> bits) const noexcept {
  const std::uint64_t* words = words_.data();
  std::size_t n = 0;
  for (const std::uint32_t b : bits) {
    n += static_cast<std::size_t>((words[b >> 6] >> (b & 63)) & 1);
  }
  return n;
}

double JaccardScorer::score_overlap(
    std::size_t common, std::size_t candidate_popcount) const noexcept {
  const std::size_t uni = popcount_ + candidate_popcount - common;
  if (uni == 0) return 1.0;
  return static_cast<double>(common) / static_cast<double>(uni);
}

std::size_t JaccardScorer::overlap(
    const SparseSignature& candidate) const noexcept {
  FAST_CHECK(candidate.bit_count() == bit_count_);
  return overlap_bits(candidate.set_bits());
}

std::size_t JaccardScorer::overlap(PackedView candidate) const noexcept {
  FAST_CHECK(candidate.bit_count() == bit_count_);
  if (!candidate.dense()) return overlap_bits(candidate.set_bits());
  return and_popcount_(words_.data(), candidate.words().data(),
                       words_.size());
}

double JaccardScorer::score(const SparseSignature& candidate) const noexcept {
  return score_overlap(overlap(candidate), candidate.popcount());
}

double JaccardScorer::score(PackedView candidate) const noexcept {
  return score_overlap(overlap(candidate), candidate.popcount());
}

void JaccardScorer::score_slots(const SignatureSlab& slab,
                                std::span<const std::uint32_t> slots,
                                std::span<double> scores) const noexcept {
  FAST_CHECK(slab.bit_count() == bit_count_);
  FAST_CHECK(scores.size() == slots.size());
  const std::size_t n = slots.size();
  for (std::size_t c = 0; c < std::min(kPrefetchDistance, n); ++c) {
    slab.prefetch(slots[c]);
  }
  for (std::size_t c = 0; c < n; ++c) {
    if (c + kPrefetchDistance < n) slab.prefetch(slots[c + kPrefetchDistance]);
    scores[c] = score(slab.view(slots[c]));
  }
}

}  // namespace fast::hash

#include "hash/sparse_signature.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "util/check.hpp"

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

JaccardScorer::JaccardScorer(const SparseSignature& query)
    : bit_count_(query.bit_count()),
      popcount_(query.popcount()),
      words_((static_cast<std::size_t>(query.bit_count()) + 63) / 64, 0) {
  for (const std::uint32_t b : query.set_bits()) {
    words_[b >> 6] |= std::uint64_t{1} << (b & 63);
  }
}

std::size_t JaccardScorer::overlap(
    const SparseSignature& candidate) const noexcept {
  FAST_CHECK(candidate.bit_count() == bit_count_);
  const std::uint64_t* words = words_.data();
  std::size_t n = 0;
  for (const std::uint32_t b : candidate.set_bits()) {
    n += static_cast<std::size_t>((words[b >> 6] >> (b & 63)) & 1);
  }
  return n;
}

double JaccardScorer::score(const SparseSignature& candidate) const noexcept {
  const std::size_t common = overlap(candidate);
  const std::size_t uni = popcount_ + candidate.popcount() - common;
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

}  // namespace

std::vector<std::uint8_t> SparseSignature::encode() const {
  std::vector<std::uint8_t> out;
  out.reserve(2 + bits_.size() + 8);
  put_varint(out, bit_count_);
  put_varint(out, static_cast<std::uint32_t>(bits_.size()));
  std::uint32_t prev = 0;
  for (std::uint32_t b : bits_) {
    put_varint(out, b - prev);  // first delta is the absolute position
    prev = b;
  }
  return out;
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
  // Exact encoded size without materializing the buffer.
  auto varint_len = [](std::uint32_t v) {
    std::size_t n = 1;
    while (v >= 0x80) {
      v >>= 7;
      ++n;
    }
    return n;
  };
  std::size_t total = varint_len(bit_count_) +
                      varint_len(static_cast<std::uint32_t>(bits_.size()));
  std::uint32_t prev = 0;
  for (std::uint32_t b : bits_) {
    total += varint_len(b - prev);
    prev = b;
  }
  return total;
}

std::vector<float> SparseSignature::to_float_vector() const {
  std::vector<float> v(bit_count_, 0.0f);
  for (std::uint32_t b : bits_) v[b] = 1.0f;
  return v;
}

}  // namespace fast::hash

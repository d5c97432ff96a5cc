#ifndef JSI_UTIL_BITVEC_HPP
#define JSI_UTIL_BITVEC_HPP

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace jsi::util {

/// Dynamically sized bit vector used for scan-chain payloads, test vectors
/// and victim-select words.
///
/// Bit 0 is the least-significant / first-scanned bit. `to_string()` prints
/// MSB-first (bit size-1 on the left) matching the way the paper draws
/// vectors like `00000 -> 11011`.
class BitVec {
 public:
  BitVec() = default;

  /// `n` bits, all initialized to `fill`.
  explicit BitVec(std::size_t n, bool fill = false);

  /// Parse an MSB-first string of '0'/'1' characters ("01101").
  /// Underscores are ignored as visual separators. Throws
  /// std::invalid_argument on any other character.
  static BitVec from_string(std::string_view s);

  /// All-zero vector of width `n`.
  static BitVec zeros(std::size_t n) { return BitVec(n, false); }

  /// All-one vector of width `n`.
  static BitVec ones(std::size_t n) { return BitVec(n, true); }

  /// One-hot vector of width `n` with bit `hot` set. Throws
  /// std::out_of_range if `hot >= n`.
  static BitVec one_hot(std::size_t n, std::size_t hot);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Read bit `i`; throws std::out_of_range when out of bounds.
  bool get(std::size_t i) const;

  /// Write bit `i`; throws std::out_of_range when out of bounds.
  void set(std::size_t i, bool v);

  /// Unchecked read (used by hot loops after explicit validation).
  bool operator[](std::size_t i) const {
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
  }

  /// Append one bit at the most-significant end.
  void push_back(bool v);

  // Word access: bit i lives in word i / 64, at bit i % 64. Bits past
  // size() in the last word are always 0.

  /// Number of 64-bit storage words.
  std::size_t word_count() const { return words_.size(); }

  /// Storage word `w` (unchecked).
  std::uint64_t word(std::size_t w) const { return words_[w]; }

  /// Write storage word `w` (unchecked); bits past size() are dropped.
  void set_word(std::size_t w, std::uint64_t v) {
    words_[w] = w + 1 == words_.size() ? v & tail_mask() : v;
  }

  /// Bits [pos, pos + 64) as one word, bit `pos` lowest. Positions
  /// outside [0, size()) read 0, so `pos` may be negative or past the
  /// end.
  std::uint64_t bits_at(std::ptrdiff_t pos) const {
    if (pos <= -static_cast<std::ptrdiff_t>(kWordBits) ||
        pos >= static_cast<std::ptrdiff_t>(size_)) {
      return 0;
    }
    if (pos < 0) return words_[0] << -pos;
    const std::size_t w = static_cast<std::size_t>(pos) / kWordBits;
    const std::size_t r = static_cast<std::size_t>(pos) % kWordBits;
    std::uint64_t v = words_[w] >> r;
    if (r != 0 && w + 1 < words_.size()) v |= words_[w + 1] << (kWordBits - r);
    return v;
  }

  /// Bits [pos, pos + len) all take `v`; throws std::out_of_range past
  /// the end.
  void fill(std::size_t pos, std::size_t len, bool v);

  /// Bits [pos, pos + src.size()) take `src`; throws std::out_of_range
  /// past the end.
  void assign(std::size_t pos, const BitVec& src);

  /// Shift the whole vector one position toward higher indices and insert
  /// `in` at bit 0 — exactly what one Shift-DR TCK does to a scan chain
  /// whose cell 0 is nearest TDI. Returns the bit shifted out of the
  /// most-significant end (toward TDO).
  bool shift_in(bool in);

  /// Number of set bits.
  std::size_t popcount() const;

  /// True iff exactly one bit is set.
  bool is_one_hot() const { return popcount() == 1; }

  /// Bitwise complement (same width).
  BitVec operator~() const;

  BitVec operator&(const BitVec& o) const;
  BitVec operator|(const BitVec& o) const;
  BitVec operator^(const BitVec& o) const;

  bool operator==(const BitVec& o) const;
  bool operator!=(const BitVec& o) const { return !(*this == o); }

  /// Sub-range [pos, pos+len) as a new vector.
  BitVec slice(std::size_t pos, std::size_t len) const;

  /// Concatenation: `this` occupies the low bits, `hi` the high bits.
  BitVec concat(const BitVec& hi) const;

  /// In-place order reversal (bit 0 swaps with bit size-1).
  void reverse();

  /// MSB-first textual form, e.g. "01101".
  std::string to_string() const;

  /// Interpret the low 64 bits as an unsigned integer.
  std::uint64_t to_u64() const;

  /// Build from the low `n` bits of `v` (bit 0 = LSB of `v`).
  static BitVec from_u64(std::uint64_t v, std::size_t n);

 private:
  static constexpr std::size_t kWordBits = 64;
  void check(std::size_t i) const;
  void trim();
  std::uint64_t tail_mask() const {
    const std::size_t rem = size_ % kWordBits;
    return rem == 0 ? ~0ull : (1ull << rem) - 1;
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

std::ostream& operator<<(std::ostream& os, const BitVec& v);

}  // namespace jsi::util

#endif  // JSI_UTIL_BITVEC_HPP

#include "util/bitvec.hpp"

#include <algorithm>
#include <bit>
#include <ostream>
#include <stdexcept>

namespace jsi::util {

BitVec::BitVec(std::size_t n, bool fill) : size_(n) {
  words_.assign((n + kWordBits - 1) / kWordBits, fill ? ~0ull : 0ull);
  trim();
}

BitVec BitVec::from_string(std::string_view s) {
  BitVec v;
  std::size_t bits = 0;
  for (char c : s) {
    if (c != '_') ++bits;
  }
  v = BitVec(bits, false);
  std::size_t i = bits;  // MSB-first: first char is the highest index.
  for (char c : s) {
    if (c == '_') continue;
    --i;
    if (c == '1') {
      v.set(i, true);
    } else if (c != '0') {
      throw std::invalid_argument(std::string("bad bit char: ") + c);
    }
  }
  return v;
}

BitVec BitVec::one_hot(std::size_t n, std::size_t hot) {
  BitVec v(n, false);
  v.set(hot, true);
  return v;
}

void BitVec::check(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("BitVec index out of range");
}

void BitVec::trim() {
  const std::size_t rem = size_ % kWordBits;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (1ull << rem) - 1;
  }
}

bool BitVec::get(std::size_t i) const {
  check(i);
  return (*this)[i];
}

void BitVec::set(std::size_t i, bool v) {
  check(i);
  const std::uint64_t mask = 1ull << (i % kWordBits);
  if (v) {
    words_[i / kWordBits] |= mask;
  } else {
    words_[i / kWordBits] &= ~mask;
  }
}

void BitVec::push_back(bool v) {
  if (size_ % kWordBits == 0) words_.push_back(0);
  ++size_;
  set(size_ - 1, v);
}

void BitVec::fill(std::size_t pos, std::size_t len, bool v) {
  if (pos > size_ || len > size_ - pos) {
    throw std::out_of_range("BitVec fill out of range");
  }
  for (std::size_t i = pos; i < pos + len;) {
    const std::size_t w = i / kWordBits;
    const std::size_t lo = i % kWordBits;
    const std::size_t n = std::min(kWordBits - lo, pos + len - i);
    const std::uint64_t m = (n == kWordBits ? ~0ull : (1ull << n) - 1) << lo;
    words_[w] = v ? words_[w] | m : words_[w] & ~m;
    i += n;
  }
}

void BitVec::assign(std::size_t pos, const BitVec& src) {
  if (pos > size_ || src.size_ > size_ - pos) {
    throw std::out_of_range("BitVec assign out of range");
  }
  const std::size_t end = pos + src.size_;
  for (std::size_t i = pos; i < end;) {
    const std::size_t w = i / kWordBits;
    const std::size_t lo = i % kWordBits;
    const std::size_t n = std::min(kWordBits - lo, end - i);
    const std::uint64_t m = (n == kWordBits ? ~0ull : (1ull << n) - 1) << lo;
    const std::uint64_t bits =
        src.bits_at(static_cast<std::ptrdiff_t>(i - pos)) << lo;
    words_[w] = (words_[w] & ~m) | (bits & m);
    i += n;
  }
}

bool BitVec::shift_in(bool in) {
  if (size_ == 0) return in;
  const bool out = (*this)[size_ - 1];
  std::uint64_t carry = in ? 1u : 0u;
  for (auto& w : words_) {
    const std::uint64_t next = w >> (kWordBits - 1);
    w = (w << 1) | carry;
    carry = next;
  }
  trim();
  return out;
}

std::size_t BitVec::popcount() const {
  std::size_t n = 0;
  for (auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

BitVec BitVec::operator~() const {
  BitVec r(*this);
  for (auto& w : r.words_) w = ~w;
  r.trim();
  return r;
}

BitVec BitVec::operator&(const BitVec& o) const {
  if (size_ != o.size_) throw std::invalid_argument("BitVec width mismatch");
  BitVec r(*this);
  for (std::size_t i = 0; i < words_.size(); ++i) r.words_[i] &= o.words_[i];
  return r;
}

BitVec BitVec::operator|(const BitVec& o) const {
  if (size_ != o.size_) throw std::invalid_argument("BitVec width mismatch");
  BitVec r(*this);
  for (std::size_t i = 0; i < words_.size(); ++i) r.words_[i] |= o.words_[i];
  return r;
}

BitVec BitVec::operator^(const BitVec& o) const {
  if (size_ != o.size_) throw std::invalid_argument("BitVec width mismatch");
  BitVec r(*this);
  for (std::size_t i = 0; i < words_.size(); ++i) r.words_[i] ^= o.words_[i];
  return r;
}

bool BitVec::operator==(const BitVec& o) const {
  return size_ == o.size_ && words_ == o.words_;
}

BitVec BitVec::slice(std::size_t pos, std::size_t len) const {
  if (pos + len > size_) throw std::out_of_range("BitVec slice out of range");
  BitVec r(len, false);
  for (std::size_t w = 0; w < r.words_.size(); ++w) {
    r.set_word(w, bits_at(static_cast<std::ptrdiff_t>(pos + w * kWordBits)));
  }
  return r;
}

BitVec BitVec::concat(const BitVec& hi) const {
  BitVec r(size_ + hi.size_, false);
  for (std::size_t i = 0; i < size_; ++i) r.set(i, (*this)[i]);
  for (std::size_t i = 0; i < hi.size_; ++i) r.set(size_ + i, hi[i]);
  return r;
}

void BitVec::reverse() {
  for (std::size_t i = 0, j = size_ == 0 ? 0 : size_ - 1; i < j; ++i, --j) {
    const bool a = (*this)[i];
    const bool b = (*this)[j];
    set(i, b);
    set(j, a);
  }
}

std::string BitVec::to_string() const {
  std::string s;
  s.reserve(size_);
  for (std::size_t i = size_; i-- > 0;) s.push_back((*this)[i] ? '1' : '0');
  return s;
}

std::uint64_t BitVec::to_u64() const {
  return words_.empty() ? 0ull : words_[0];
}

BitVec BitVec::from_u64(std::uint64_t v, std::size_t n) {
  BitVec r(n, false);
  for (std::size_t i = 0; i < n && i < kWordBits; ++i) {
    r.set(i, (v >> i) & 1u);
  }
  return r;
}

std::ostream& operator<<(std::ostream& os, const BitVec& v) {
  return os << v.to_string();
}

}  // namespace jsi::util

#include "util/bitvec.hpp"

#include <gtest/gtest.h>

#include "util/prng.hpp"

namespace jsi::util {
namespace {

TEST(BitVec, DefaultIsEmpty) {
  BitVec v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
}

TEST(BitVec, FillConstructor) {
  EXPECT_EQ(BitVec(5, false).to_string(), "00000");
  EXPECT_EQ(BitVec(5, true).to_string(), "11111");
  EXPECT_EQ(BitVec::zeros(3).popcount(), 0u);
  EXPECT_EQ(BitVec::ones(70).popcount(), 70u);
}

TEST(BitVec, FromStringMsbFirst) {
  const BitVec v = BitVec::from_string("10110");
  EXPECT_EQ(v.size(), 5u);
  EXPECT_FALSE(v[0]);
  EXPECT_TRUE(v[1]);
  EXPECT_TRUE(v[2]);
  EXPECT_FALSE(v[3]);
  EXPECT_TRUE(v[4]);
  EXPECT_EQ(v.to_string(), "10110");
}

TEST(BitVec, FromStringIgnoresUnderscores) {
  EXPECT_EQ(BitVec::from_string("1_0_1").to_string(), "101");
}

TEST(BitVec, FromStringRejectsGarbage) {
  EXPECT_THROW(BitVec::from_string("10a"), std::invalid_argument);
}

TEST(BitVec, OneHot) {
  const BitVec v = BitVec::one_hot(6, 2);
  EXPECT_EQ(v.to_string(), "000100");
  EXPECT_TRUE(v.is_one_hot());
  EXPECT_THROW(BitVec::one_hot(4, 4), std::out_of_range);
}

TEST(BitVec, GetSetBoundsChecked) {
  BitVec v(4, false);
  v.set(3, true);
  EXPECT_TRUE(v.get(3));
  EXPECT_THROW(v.get(4), std::out_of_range);
  EXPECT_THROW(v.set(4, true), std::out_of_range);
}

TEST(BitVec, PushBackGrowsAtMsbEnd) {
  BitVec v;
  v.push_back(true);
  v.push_back(false);
  v.push_back(true);
  EXPECT_EQ(v.to_string(), "101");  // bit0=1, bit1=0, bit2=1
}

TEST(BitVec, ShiftInBehavesLikeScanChain) {
  BitVec v = BitVec::from_string("101");  // bit2=1 bit1=0 bit0=1
  // Shift in a 0: bit2 (MSB) leaves, everything moves up.
  EXPECT_TRUE(v.shift_in(false));
  EXPECT_EQ(v.to_string(), "010");
  EXPECT_FALSE(v.shift_in(true));
  EXPECT_EQ(v.to_string(), "101");
}

TEST(BitVec, ShiftInAcrossWordBoundary) {
  BitVec v(130, false);
  v.set(0, true);
  for (int i = 0; i < 129; ++i) EXPECT_FALSE(v.shift_in(false));
  EXPECT_TRUE(v[129]);
  EXPECT_TRUE(v.shift_in(false));  // the bit finally leaves
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVec, ShiftFullIdentity) {
  // Shifting a vector through itself: after size() shifts with recycled
  // output, the content is unchanged.
  Prng rng(7);
  BitVec v(97, false);
  for (std::size_t i = 0; i < v.size(); ++i) v.set(i, rng.next_bool());
  const BitVec orig = v;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const bool out = v.shift_in(orig[(v.size() - 1 + i) % v.size()]);
    (void)out;
  }
  // Recycling MSB back in means rotating; instead verify shifting zeros
  // drains exactly the original bits MSB-first.
  BitVec w = orig;
  std::string drained;
  for (std::size_t i = 0; i < w.size(); ++i) {
    drained.push_back(w.shift_in(false) ? '1' : '0');
  }
  EXPECT_EQ(drained, orig.to_string());
}

TEST(BitVec, BitwiseOps) {
  const BitVec a = BitVec::from_string("1100");
  const BitVec b = BitVec::from_string("1010");
  EXPECT_EQ((a & b).to_string(), "1000");
  EXPECT_EQ((a | b).to_string(), "1110");
  EXPECT_EQ((a ^ b).to_string(), "0110");
  EXPECT_EQ((~a).to_string(), "0011");
  EXPECT_THROW(a & BitVec::zeros(3), std::invalid_argument);
}

TEST(BitVec, ComplementKeepsWidthAndTrims) {
  const BitVec v = ~BitVec::zeros(70);
  EXPECT_EQ(v.size(), 70u);
  EXPECT_EQ(v.popcount(), 70u);
  EXPECT_EQ((~v).popcount(), 0u);
}

TEST(BitVec, SliceAndConcat) {
  const BitVec v = BitVec::from_string("110010");
  EXPECT_EQ(v.slice(1, 3).to_string(), "001");
  EXPECT_THROW(v.slice(4, 3), std::out_of_range);
  const BitVec lo = BitVec::from_string("01");
  const BitVec hi = BitVec::from_string("11");
  EXPECT_EQ(lo.concat(hi).to_string(), "1101");
}

TEST(BitVec, Reverse) {
  BitVec v = BitVec::from_string("1101");
  v.reverse();
  EXPECT_EQ(v.to_string(), "1011");
  BitVec single = BitVec::from_string("1");
  single.reverse();
  EXPECT_EQ(single.to_string(), "1");
}

TEST(BitVec, U64RoundTrip) {
  const BitVec v = BitVec::from_u64(0xDEADBEEFull, 32);
  EXPECT_EQ(v.to_u64(), 0xDEADBEEFull);
  EXPECT_EQ(BitVec::from_u64(0b101, 3).to_string(), "101");
}

TEST(BitVec, EqualityIncludesWidth) {
  EXPECT_EQ(BitVec::zeros(4), BitVec::zeros(4));
  EXPECT_NE(BitVec::zeros(4), BitVec::zeros(5));
  EXPECT_NE(BitVec::zeros(4), BitVec::ones(4));
}

class ShiftProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShiftProperty, NShiftsLoadExactlyNBits) {
  // Property: shifting k bits into a width-k vector makes cell j hold the
  // bit shifted at step k-1-j — the mapping every scan routine relies on.
  const std::size_t k = GetParam();
  Prng rng(k);
  std::vector<bool> bits(k);
  for (auto&& b : bits) b = rng.next_bool();
  BitVec v(k, false);
  for (std::size_t t = 0; t < k; ++t) v.shift_in(bits[t]);
  for (std::size_t j = 0; j < k; ++j) {
    EXPECT_EQ(v[j], bits[k - 1 - j]) << "k=" << k << " j=" << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ShiftProperty,
                         ::testing::Values(1, 2, 7, 63, 64, 65, 200));

TEST(BitVec, WordAccessAndBitsAt) {
  BitVec v(130, false);
  v.set(0, true);
  v.set(63, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_EQ(v.word_count(), 3u);
  EXPECT_EQ(v.word(0), 0x8000000000000001ull);
  EXPECT_EQ(v.word(2), 0x2ull);
  // A window across a word edge, before the start and past the end.
  EXPECT_EQ(v.bits_at(63), 0x3ull);
  EXPECT_EQ(v.bits_at(-1), 0x2ull);
  EXPECT_EQ(v.bits_at(-64), 0ull);
  EXPECT_EQ(v.bits_at(129), 1ull);
  EXPECT_EQ(v.bits_at(130), 0ull);
  // set_word drops the bits past the end.
  v.set_word(2, ~0ull);
  EXPECT_EQ(v.word(2), 0x3ull);
  EXPECT_EQ(v.popcount(), 5u);
}

TEST(BitVec, FillAndAssignRanges) {
  for (const std::size_t n : {1, 63, 64, 65, 130}) {
    for (std::size_t pos = 0; pos <= n; pos += 7) {
      for (std::size_t len = 0; pos + len <= n; len += 5) {
        BitVec v(n, true);
        v.fill(pos, len, false);
        BitVec ref(n, true);
        for (std::size_t i = pos; i < pos + len; ++i) ref.set(i, false);
        ASSERT_EQ(v, ref) << n << " " << pos << " " << len;

        BitVec src(len, false);
        for (std::size_t i = 0; i < len; i += 3) src.set(i, true);
        v.assign(pos, src);
        for (std::size_t i = 0; i < len; ++i) ref.set(pos + i, src[i]);
        ASSERT_EQ(v, ref) << n << " " << pos << " " << len;
        ASSERT_EQ(v.slice(pos, len), src);
      }
    }
    BitVec v(n, false);
    EXPECT_THROW(v.fill(n, 1, true), std::out_of_range);
    EXPECT_THROW(v.assign(1, BitVec(n, true)), std::out_of_range);
  }
}

}  // namespace
}  // namespace jsi::util

#include "mafm/fault.hpp"

#include <gtest/gtest.h>

#include "util/bitvec.hpp"
#include "util/prng.hpp"

namespace jsi::mafm {
namespace {

using util::BitVec;

TEST(MaFault, NamesAreDistinct) {
  for (auto a : kAllFaults) {
    for (auto b : kAllFaults) {
      if (a != b) {
        EXPECT_NE(fault_name(a), fault_name(b));
      }
    }
  }
}

TEST(MaFault, NoiseVsSkewSplit) {
  EXPECT_TRUE(is_noise_fault(MaFault::Pg));
  EXPECT_TRUE(is_noise_fault(MaFault::PgBar));
  EXPECT_TRUE(is_noise_fault(MaFault::Ng));
  EXPECT_TRUE(is_noise_fault(MaFault::NgBar));
  EXPECT_FALSE(is_noise_fault(MaFault::Rs));
  EXPECT_FALSE(is_noise_fault(MaFault::Fs));
}

TEST(MaFault, VectorsForPgOnFiveWireBus) {
  // Paper Fig 3: victim wire 2 of 5, positive glitch needs 00000 -> 11011.
  const VectorPair p = vectors_for(MaFault::Pg, 5, 2);
  EXPECT_EQ(p.v1.to_string(), "00000");
  EXPECT_EQ(p.v2.to_string(), "11011");
}

TEST(MaFault, VectorsForRisingSkew) {
  const VectorPair p = vectors_for(MaFault::Rs, 5, 2);
  EXPECT_EQ(p.v1.to_string(), "11011");
  EXPECT_EQ(p.v2.to_string(), "00100");
}

TEST(MaFault, VectorsForFallingSkew) {
  const VectorPair p = vectors_for(MaFault::Fs, 5, 2);
  EXPECT_EQ(p.v1.to_string(), "00100");
  EXPECT_EQ(p.v2.to_string(), "11011");
}

TEST(MaFault, VectorsThrowOnBadVictim) {
  EXPECT_THROW(vectors_for(MaFault::Pg, 4, 4), std::out_of_range);
}

class VectorsRoundTrip : public ::testing::TestWithParam<
                             std::tuple<MaFault, std::size_t, std::size_t>> {};

TEST_P(VectorsRoundTrip, ClassifyRecoversTheFault) {
  const auto [f, n, victim] = GetParam();
  if (victim >= n) GTEST_SKIP();
  const VectorPair p = vectors_for(f, n, victim);
  const auto got = classify(p.v1, p.v2, victim);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, f);
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultsAllVictims, VectorsRoundTrip,
    ::testing::Combine(::testing::ValuesIn(kAllFaults),
                       ::testing::Values<std::size_t>(2, 3, 5, 8, 16),
                       ::testing::Values<std::size_t>(0, 1, 4, 7, 15)));

TEST(MaClassify, RejectsNonUniformAggressors) {
  // Aggressors moving in different directions is not an MA pattern.
  const BitVec a = BitVec::from_string("01010");
  const BitVec b = BitVec::from_string("10100");
  EXPECT_FALSE(classify(a, b, 2).has_value());
}

TEST(MaClassify, RejectsQuietAggressors) {
  const BitVec a = BitVec::from_string("00000");
  const BitVec b = BitVec::from_string("00100");
  EXPECT_FALSE(classify(a, b, 2).has_value());
}

TEST(MaClassify, RejectsAllTogglingSameDirection) {
  // The generator's "reset" transition: victim moves with the aggressors.
  const BitVec a = BitVec::from_string("11111");
  const BitVec b = BitVec::from_string("00000");
  EXPECT_FALSE(classify(a, b, 2).has_value());
}

TEST(MaClassify, WidthMismatchThrows) {
  EXPECT_THROW(
      classify(BitVec::zeros(4), BitVec::zeros(5), 0),
      std::invalid_argument);
}

/// The per-bit rule `classify` implements a word at a time: every
/// aggressor switches, all in one direction, and the victim does what
/// the fault names.
std::optional<MaFault> classify_bitwise(const BitVec& prev, const BitVec& next,
                                        std::size_t victim) {
  int agg = 2;  // 2 = unset
  for (std::size_t i = 0; i < prev.size(); ++i) {
    if (i == victim) continue;
    const int d = (next[i] ? 1 : 0) - (prev[i] ? 1 : 0);
    if (agg == 2) {
      agg = d;
    } else if (agg != d) {
      return std::nullopt;
    }
  }
  if (agg == 0 || agg == 2) return std::nullopt;
  const int dv = (next[victim] ? 1 : 0) - (prev[victim] ? 1 : 0);
  if (agg > 0) {
    if (dv == 0) return prev[victim] ? MaFault::PgBar : MaFault::Pg;
    if (dv < 0) return MaFault::Fs;
    return std::nullopt;
  }
  if (dv == 0) return prev[victim] ? MaFault::Ng : MaFault::NgBar;
  if (dv > 0) return MaFault::Rs;
  return std::nullopt;
}

TEST(MaClassify, WordsEqualThePerBitRule) {
  // Random pairs almost never excite a fault on a wide bus, so most
  // pairs start from an MA vector pair and flip a few bits: the near
  // misses an aggressor in another word than the victim's can cause.
  util::Prng rng(2403);
  std::size_t faults = 0;
  for (std::size_t n = 2; n <= 130; ++n) {
    for (int trial = 0; trial < 12; ++trial) {
      BitVec prev(n, false);
      BitVec next(n, false);
      if (trial < 3) {
        for (std::size_t i = 0; i < n; ++i) {
          prev.set(i, rng.next_bool());
          next.set(i, rng.next_bool());
        }
      } else {
        const MaFault f = kAllFaults[rng.next_below(kAllFaults.size())];
        VectorPair p = vectors_for(f, n, rng.next_below(n));
        prev = p.v1;
        next = p.v2;
        for (std::uint64_t k = rng.next_below(3); k > 0; --k) {
          BitVec& v = rng.next_bool() ? prev : next;
          const std::size_t i = rng.next_below(n);
          v.set(i, !v[i]);
        }
      }
      for (std::size_t victim = 0; victim < n; ++victim) {
        const auto want = classify_bitwise(prev, next, victim);
        ASSERT_EQ(classify(prev, next, victim), want)
            << "n " << n << " victim " << victim << " " << prev << " -> "
            << next;
        faults += want.has_value() ? 1 : 0;
      }
    }
  }
  EXPECT_GT(faults, 300u);  // the structured pairs do excite faults
}

}  // namespace
}  // namespace jsi::mafm

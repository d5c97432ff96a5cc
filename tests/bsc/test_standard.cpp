#include "bsc/standard.hpp"

#include <gtest/gtest.h>

namespace jsi::bsc {
namespace {

using jtag::CellCtl;
using util::Logic;

TEST(StandardBsc, CaptureReadsPin) {
  StandardBsc c;
  c.set_parallel_in(Logic::L1);
  c.capture(CellCtl{});
  EXPECT_TRUE(c.ff1());
  c.set_parallel_in(Logic::L0);
  c.capture(CellCtl{});
  EXPECT_FALSE(c.ff1());
}

TEST(StandardBsc, ShiftMovesTdiToFf1AndReturnsOldFf1) {
  StandardBsc c;
  EXPECT_FALSE(c.shift_bit(true));
  EXPECT_TRUE(c.shift_bit(false));
  EXPECT_FALSE(c.ff1());
}

TEST(StandardBsc, UpdateCopiesFf1ToFf2) {
  StandardBsc c;
  c.shift_bit(true);
  EXPECT_FALSE(c.ff2());
  c.update(CellCtl{});
  EXPECT_TRUE(c.ff2());
}

TEST(StandardBsc, ModeMuxSelectsSource) {
  StandardBsc c;
  c.set_parallel_in(Logic::L0);
  c.shift_bit(true);
  c.update(CellCtl{});
  CellCtl functional;
  EXPECT_EQ(c.parallel_out(functional), Logic::L0);  // pin passes through
  CellCtl test;
  test.mode = true;
  EXPECT_EQ(c.parallel_out(test), Logic::L1);  // FF2 drives
}

TEST(StandardBsc, ResetClearsState) {
  StandardBsc c;
  c.shift_bit(true);
  c.update(CellCtl{});
  c.reset();
  EXPECT_FALSE(c.ff1());
  EXPECT_FALSE(c.ff2());
}

TEST(StandardBsc, SamplePathObservesWithoutDisturbing) {
  // SAMPLE: capture the functional value while Mode=0 keeps the pin
  // connected to the core.
  StandardBsc c;
  c.set_parallel_in(Logic::L1);
  c.capture(CellCtl{});
  EXPECT_EQ(c.parallel_out(CellCtl{}), Logic::L1);
  EXPECT_TRUE(c.ff1());
}

}  // namespace
}  // namespace jsi::bsc

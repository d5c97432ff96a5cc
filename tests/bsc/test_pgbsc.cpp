#include "bsc/pgbsc.hpp"

#include <gtest/gtest.h>

namespace jsi::bsc {
namespace {

using jtag::CellCtl;
using util::Logic;

CellCtl normal() { return CellCtl{}; }

CellCtl gsitest() {
  CellCtl c;
  c.mode = true;
  c.si = true;
  c.ce = true;
  c.gen = true;
  return c;
}

CellCtl ositest() {
  CellCtl c;
  c.mode = true;
  c.si = true;
  return c;
}

TEST(Pgbsc, Table1NormalMode) {
  // Normal mode: SI=0, FF2 loads FF1 on Update-DR.
  Pgbsc c;
  c.shift_bit(true);
  c.update(normal());
  EXPECT_TRUE(c.q2());
  EXPECT_TRUE(c.q3()) << "FF3 re-armed to 1 by a non-SI update";
}

TEST(Pgbsc, Table1AggressorTogglesEveryUpdate) {
  // Aggressor mode: Q1=0, SI=1 -> FF2 complements on every Update-DR.
  Pgbsc c;
  c.update(normal());  // preload 0, arm FF3
  bool expect = false;
  for (int u = 0; u < 6; ++u) {
    c.update(gsitest());
    expect = !expect;
    EXPECT_EQ(c.q2(), expect) << "update " << u;
    EXPECT_TRUE(c.last_update_clocked_ff2());
  }
}

TEST(Pgbsc, Table1VictimTogglesEveryOtherUpdate) {
  // Victim mode: Q1=1, SI=1 -> FF2 clocked by Update-DR/2 starting at the
  // second SI update (FF3 armed to 1).
  Pgbsc c;
  c.update(normal());
  c.shift_bit(true);  // victim-select = 1
  const bool q2_expected[] = {false, true, true, false, false, true};
  for (int u = 0; u < 6; ++u) {
    c.update(gsitest());
    EXPECT_EQ(c.q2(), q2_expected[u]) << "update " << u;
  }
}

TEST(Pgbsc, VictimFrequencyIsHalfAggressorFrequency) {
  // Paper Fig 7: track toggles over 8 updates.
  Pgbsc victim, aggressor;
  victim.update(normal());
  aggressor.update(normal());
  victim.shift_bit(true);
  int victim_toggles = 0, aggressor_toggles = 0;
  bool pv = victim.q2(), pa = aggressor.q2();
  for (int u = 0; u < 8; ++u) {
    victim.update(gsitest());
    aggressor.update(gsitest());
    if (victim.q2() != pv) ++victim_toggles;
    if (aggressor.q2() != pa) ++aggressor_toggles;
    pv = victim.q2();
    pa = aggressor.q2();
  }
  EXPECT_EQ(aggressor_toggles, 8);
  EXPECT_EQ(victim_toggles, 4);
}

TEST(Pgbsc, CaptureHoldsFf1InSiMode) {
  Pgbsc c;
  c.set_parallel_in(Logic::L1);
  c.shift_bit(true);
  c.set_parallel_in(Logic::L0);
  c.capture(gsitest());
  EXPECT_TRUE(c.q1()) << "SI capture must not overwrite victim-select";
  c.capture(normal());
  EXPECT_FALSE(c.q1()) << "non-SI capture samples the core output";
}

TEST(Pgbsc, OSitestHoldsPatternState) {
  // Reading sensors out (SI=1, GEN=0) must freeze FF2/FF3 so Method 3
  // read-outs don't derail the sequence.
  Pgbsc c;
  c.update(normal());
  c.update(gsitest());  // aggressor toggles to 1
  const bool q2 = c.q2();
  const bool q3 = c.q3();
  for (int i = 0; i < 3; ++i) c.update(ositest());
  EXPECT_EQ(c.q2(), q2);
  EXPECT_EQ(c.q3(), q3);
  EXPECT_FALSE(c.last_update_clocked_ff2());
}

TEST(Pgbsc, ShiftRotatesVictimSelect) {
  Pgbsc a, b;
  a.shift_bit(true);
  EXPECT_TRUE(a.q1());
  // Rotate: shift one 0 in; a's bit moves to b.
  const bool out = a.shift_bit(false);
  b.shift_bit(out);
  EXPECT_FALSE(a.q1());
  EXPECT_TRUE(b.q1());
}

TEST(Pgbsc, ModeMuxDrivesQ2OnlyInTestMode) {
  Pgbsc c;
  c.set_parallel_in(Logic::L1);
  c.update(normal());  // q2 = q1 = 0
  CellCtl functional;
  EXPECT_EQ(c.parallel_out(functional), Logic::L1);
  EXPECT_EQ(c.parallel_out(gsitest()), Logic::L0);
}

TEST(Pgbsc, ResetState) {
  Pgbsc c;
  c.shift_bit(true);
  c.update(normal());
  c.reset();
  EXPECT_FALSE(c.q1());
  EXPECT_FALSE(c.q2());
  EXPECT_TRUE(c.q3());
}

TEST(Pgbsc, InitialValueOnePatternPhase) {
  // With initial value 1 the aggressor sequence is 1->0->1->0 and the
  // victim 1->1->0->0 (Ng, Fs, Ng' order).
  Pgbsc victim;
  victim.shift_bit(true);  // FF1=1 so the preload update sets q2=1
  victim.update(normal());
  EXPECT_TRUE(victim.q2());
  const bool expected[] = {true, false, false, true};
  for (int u = 0; u < 4; ++u) {
    victim.update(gsitest());
    EXPECT_EQ(victim.q2(), expected[u]) << "update " << u;
  }
}

}  // namespace
}  // namespace jsi::bsc

#include "bsc/obsc.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace jsi::bsc {
namespace {

using jtag::CellCtl;
using util::Logic;

si::NdParams nd_params() { return si::NdParams{}; }
si::SdParams sd_params() { return si::SdParams{}; }

CellCtl normal() { return CellCtl{}; }

CellCtl gsitest() {
  CellCtl c;
  c.mode = true;
  c.si = true;
  c.ce = true;
  c.gen = true;
  return c;
}

CellCtl ositest(bool nd_sel) {
  CellCtl c;
  c.mode = true;
  c.si = true;
  c.nd_sd = nd_sel;
  return c;
}

si::Waveform big_glitch() {
  si::Waveform w(256, sim::kPs, 0.0);
  for (std::size_t i = 50; i < 120; ++i) w[i] = 1.5;
  return w;
}

si::Waveform slow_rise() {
  si::Waveform w(2048, sim::kPs, 0.0);
  for (std::size_t i = 0; i < w.samples(); ++i) {
    w[i] = 1.8 * (1.0 - std::exp(-static_cast<double>(i) / 500.0));
  }
  return w;
}

TEST(Obsc, Table3NormalModeActsAsStandardCell) {
  Obsc c(nd_params(), sd_params());
  c.set_parallel_in(Logic::L1);
  c.capture(normal());
  EXPECT_TRUE(c.ff1());
  c.update(normal());
  EXPECT_TRUE(c.ff2());
  EXPECT_EQ(c.parallel_out(normal()), Logic::L1);  // pin through, Mode=0
  CellCtl m;
  m.mode = true;
  EXPECT_TRUE(util::to_bool(c.parallel_out(m)));
}

TEST(Obsc, Table3NdffModeCapturesNoiseFlag) {
  Obsc c(nd_params(), sd_params());
  c.observe(big_glitch(), Logic::L0, Logic::L0, gsitest());
  EXPECT_TRUE(c.nd().flag());
  EXPECT_FALSE(c.sd().flag());
  c.set_parallel_in(Logic::L1);       // pin says 1...
  c.capture(ositest(true));           // ...but SI capture takes the ND FF
  EXPECT_TRUE(c.ff1());
  c.capture(ositest(false));          // SD FF is clean
  EXPECT_FALSE(c.ff1());
}

TEST(Obsc, Table3SdffModeCapturesSkewFlag) {
  Obsc c(nd_params(), sd_params());
  c.observe(slow_rise(), Logic::L0, Logic::L1, gsitest());
  EXPECT_TRUE(c.sd().flag());
  EXPECT_FALSE(c.nd().flag());
  c.capture(ositest(false));
  EXPECT_TRUE(c.ff1());
  c.capture(ositest(true));
  EXPECT_FALSE(c.ff1());
}

TEST(Obsc, Table4SelZeroOnlyWhenSiAndNotShifting) {
  // sel=1 with SI=0: capture reads the pin.
  Obsc c(nd_params(), sd_params());
  c.observe(big_glitch(), Logic::L0, Logic::L0, gsitest());
  c.set_parallel_in(Logic::L0);
  c.capture(normal());
  EXPECT_FALSE(c.ff1()) << "SI=0: pin capture, not the ND flag";
  // Shifting always re-forms the chain regardless of SI.
  EXPECT_FALSE(c.shift_bit(true));
  EXPECT_TRUE(c.ff1());
}

TEST(Obsc, CeGatesTheSensors) {
  Obsc c(nd_params(), sd_params());
  CellCtl disabled = gsitest();
  disabled.ce = false;
  c.observe(big_glitch(), Logic::L0, Logic::L0, disabled);
  EXPECT_FALSE(c.nd().flag()) << "CE=0 must not latch";
  c.observe(big_glitch(), Logic::L0, Logic::L0, gsitest());
  EXPECT_TRUE(c.nd().flag());
  // O-SITEST observation with CE=0 preserves the flag even though the
  // waveform is clean.
  c.observe(si::Waveform(64, sim::kPs, 0.0), Logic::L0, Logic::L0,
            ositest(true));
  EXPECT_TRUE(c.nd().flag());
}

TEST(Obsc, FlagsAreStickyAcrossManyObservations) {
  Obsc c(nd_params(), sd_params());
  c.observe(big_glitch(), Logic::L0, Logic::L0, gsitest());
  for (int i = 0; i < 10; ++i) {
    c.observe(si::Waveform(64, sim::kPs, 0.0), Logic::L0, Logic::L0,
              gsitest());
  }
  EXPECT_TRUE(c.nd().flag());
}

TEST(Obsc, ResetClearsEverything) {
  Obsc c(nd_params(), sd_params());
  c.observe(big_glitch(), Logic::L0, Logic::L0, gsitest());
  c.shift_bit(true);
  c.update(normal());
  c.reset();
  EXPECT_FALSE(c.nd().flag());
  EXPECT_FALSE(c.sd().flag());
  EXPECT_FALSE(c.ff1());
  EXPECT_FALSE(c.ff2());
}

TEST(Obsc, UpdateLoadsFf2FromFf1) {
  Obsc c(nd_params(), sd_params());
  c.shift_bit(true);
  c.update(normal());
  EXPECT_TRUE(c.ff2());
}

}  // namespace
}  // namespace jsi::bsc

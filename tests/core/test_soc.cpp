#include "core/soc.hpp"

#include <gtest/gtest.h>

#include "core/session.hpp"
#include "jtag/master.hpp"
#include "util/bitvec.hpp"

namespace jsi::core {
namespace {

using util::BitVec;
using util::Logic;

SocConfig small_cfg(std::size_t n = 4, bool enhanced = true) {
  SocConfig cfg;
  cfg.n_wires = n;
  cfg.m_extra_cells = 1;
  cfg.enhanced = enhanced;
  return cfg;
}

TEST(SiSocDevice, ChainLengthIs2nPlusM) {
  SiSocDevice soc(small_cfg(6));
  EXPECT_EQ(soc.chain_length(), 13u);
}

TEST(SiSocDevice, RejectsDegenerateConfig) {
  SocConfig cfg = small_cfg(1);
  EXPECT_THROW(SiSocDevice soc(cfg), std::invalid_argument);
}

TEST(SiSocDevice, IdcodeReadsBackAfterReset) {
  SiSocDevice soc(small_cfg());
  jtag::TapMaster master(soc.tap());
  master.reset_to_idle();
  // IDCODE is the reset instruction; a 32-bit DR scan returns the id.
  const BitVec out = master.scan_dr(BitVec(32, false));
  EXPECT_EQ(out.to_u64(), soc.config().idcode | 1u);
}

TEST(SiSocDevice, BypassIsSingleBit) {
  SiSocDevice soc(small_cfg());
  jtag::TapMaster master(soc.tap());
  master.reset_to_idle();
  master.scan_ir(BitVec::ones(soc.config().ir_width));  // BYPASS
  // Bypass captures 0 then delays TDI by one stage: shifting 1011 returns
  // 0 then the first three input bits.
  const BitVec out = master.scan_dr(BitVec::from_string("1011"));
  EXPECT_EQ(out.to_string(), "0110");
}

TEST(SiSocDevice, FunctionalPathFollowsCoreOutputs) {
  SiSocDevice soc(small_cfg());
  // Mode=0 after reset: the bus carries the functional values.
  soc.set_core_output(2, Logic::L1);
  EXPECT_EQ(soc.core_input(2), Logic::L1);
  EXPECT_EQ(soc.core_input(0), Logic::L0);
  soc.set_core_output(2, Logic::L0);
  EXPECT_EQ(soc.core_input(2), Logic::L0);
}

TEST(SiSocDevice, ExtestDrivesUpdateRegisterOntoBus) {
  SiSocDevice soc(small_cfg(4));
  jtag::TapMaster master(soc.tap());
  master.reset_to_idle();
  master.scan_ir(BitVec::from_u64(soc.tap().opcode(SiSocDevice::kExtest),
                                  soc.config().ir_width));
  // Scan a pattern into the whole chain; sending cell j receives bit
  // scanned at position len-1-j.
  const std::size_t len = soc.chain_length();
  BitVec bits(len, false);
  bits.set(len - 1 - 1, true);  // wire 1 -> 1
  bits.set(len - 1 - 3, true);  // wire 3 -> 1
  master.scan_dr(bits);
  EXPECT_EQ(soc.driven_pins().to_string(), "1010");
  // The receiving side sees the settled values through the OBSCs' pins.
  EXPECT_EQ(soc.bus().settled_logic(
                soc.bus().wire_response(1, soc.driven_pins(),
                                        soc.driven_pins())),
            Logic::L1);
}

TEST(SiSocDevice, GSitestDecodeRaisesSiCeGen) {
  SiSocDevice soc(small_cfg());
  jtag::TapMaster master(soc.tap());
  master.reset_to_idle();
  master.scan_ir(BitVec::from_u64(soc.tap().opcode(SiSocDevice::kGSitest),
                                  soc.config().ir_width));
  EXPECT_TRUE(soc.controls().mode);
  EXPECT_TRUE(soc.controls().si);
  EXPECT_TRUE(soc.controls().ce);
  EXPECT_TRUE(soc.controls().gen);
}

TEST(SiSocDevice, OSitestDecodeDisablesCeAndGen) {
  SiSocDevice soc(small_cfg());
  jtag::TapMaster master(soc.tap());
  master.reset_to_idle();
  master.scan_ir(BitVec::from_u64(soc.tap().opcode(SiSocDevice::kOSitest),
                                  soc.config().ir_width));
  EXPECT_TRUE(soc.controls().mode);
  EXPECT_TRUE(soc.controls().si);
  EXPECT_FALSE(soc.controls().ce);
  EXPECT_FALSE(soc.controls().gen);
  EXPECT_TRUE(soc.controls().nd_sd);  // ND selected first
}

TEST(SiSocDevice, UnknownOpcodeFallsBackToBypass) {
  SiSocDevice soc(small_cfg());
  jtag::TapMaster master(soc.tap());
  master.reset_to_idle();
  master.scan_ir(BitVec::from_u64(0b0111, soc.config().ir_width));
  EXPECT_EQ(soc.tap().current_instruction(), "BYPASS");
}

TEST(SiSocDevice, ConventionalVariantHasNoPgbsc) {
  SiSocDevice soc(small_cfg(4, /*enhanced=*/false));
  EXPECT_EQ(soc.chain_length(), 9u);
  EXPECT_EQ(soc.boundary().pgbsc_mask().popcount(), 0u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(soc.boundary().kind(i), bsc::CellKind::Standard);
    EXPECT_EQ(soc.boundary().kind(4 + i), bsc::CellKind::Obsc);
  }
  EXPECT_EQ(soc.boundary().kind(8), bsc::CellKind::Standard);
  // The enhanced variant puts a PGBSC on every sending wire.
  SiSocDevice enhanced(small_cfg(4));
  EXPECT_EQ(enhanced.boundary().pgbsc_mask().to_string(), "000001111");
}

TEST(SiSocDevice, ClampHoldsPinsWhileBypassing) {
  SiSocDevice soc(small_cfg(4));
  jtag::TapMaster master(soc.tap());
  master.reset_to_idle();
  // Drive a pattern with EXTEST.
  master.scan_ir(BitVec::from_u64(soc.tap().opcode(SiSocDevice::kExtest),
                                  soc.config().ir_width));
  const std::size_t len = soc.chain_length();
  BitVec bits(len, false);
  bits.set(len - 1 - 2, true);
  master.scan_dr(bits);
  EXPECT_EQ(soc.driven_pins().to_string(), "0100");
  // CLAMP: scans now go through the 1-bit bypass, pins stay put.
  master.scan_ir(BitVec::from_u64(soc.tap().opcode(SiSocDevice::kClamp),
                                  soc.config().ir_width));
  const BitVec out = master.scan_dr(BitVec::from_string("101"));
  EXPECT_EQ(out.size(), 3u);  // bypass register: 1-bit delay path
  // The wires keep the clamped pattern even though the scan went through
  // BYPASS (core inputs stay on the isolated update stages, per Mode=1).
  EXPECT_EQ(soc.driven_pins().to_string(), "0100");
}

TEST(SiSocDevice, HighzReleasesTheBus) {
  SiSocDevice soc(small_cfg(4));
  jtag::TapMaster master(soc.tap());
  master.reset_to_idle();
  master.scan_ir(BitVec::from_u64(soc.tap().opcode(SiSocDevice::kHighz),
                                  soc.config().ir_width));
  EXPECT_TRUE(soc.bus_released());
  EXPECT_EQ(soc.core_input(1), util::Logic::Z);
  // Returning to SAMPLE re-drives the functional values.
  master.scan_ir(BitVec::from_u64(soc.tap().opcode(SiSocDevice::kSample),
                                  soc.config().ir_width));
  EXPECT_FALSE(soc.bus_released());
  EXPECT_EQ(soc.core_input(1), util::Logic::L0);
}

TEST(SiSocDevice, ResetEndsHighz) {
  // Test-Logic-Reset makes the reset instruction current, which ends
  // HIGHZ: the bus is driven again, by TMS reset and by TRST* alike.
  for (const bool trst : {false, true}) {
    SCOPED_TRACE(trst ? "TRST" : "TMS");
    SiSocDevice soc(small_cfg(4));
    jtag::TapMaster master(soc.tap());
    master.reset_to_idle();
    master.scan_ir(BitVec::from_u64(soc.tap().opcode(SiSocDevice::kHighz),
                                    soc.config().ir_width));
    ASSERT_TRUE(soc.bus_released());
    if (trst) {
      soc.tap().async_reset();
    } else {
      master.reset_to_idle();
    }
    EXPECT_EQ(soc.tap().current_instruction(), "IDCODE");
    EXPECT_FALSE(soc.bus_released());
    EXPECT_EQ(soc.core_input(1), Logic::L0);
    soc.set_core_output(1, Logic::L1);
    EXPECT_EQ(soc.driven_pins().to_string(), "0010");
    EXPECT_EQ(soc.core_input(1), Logic::L1);
  }
}

TEST(SiSocDevice, ResetClearsSensorFlags) {
  SiSocDevice soc(small_cfg(8));
  soc.bus().inject_crosstalk_defect(3, 7.0);
  SiTestSession session(soc);
  session.run(ObservationMethod::OnceAtEnd);
  const std::size_t fired =
      soc.nd_flags().popcount() + soc.sd_flags().popcount();
  ASSERT_GT(fired, 0u);
  EXPECT_EQ(soc.boundary().nd().popcount() + soc.boundary().sd().popcount(),
            fired);
  jtag::TapMaster master(soc.tap());
  master.reset_to_idle();
  EXPECT_EQ(soc.nd_flags().popcount(), 0u);
  EXPECT_EQ(soc.sd_flags().popcount(), 0u);
  EXPECT_EQ(soc.boundary().nd().popcount(), 0u);
  EXPECT_EQ(soc.boundary().sd().popcount(), 0u);
}

}  // namespace
}  // namespace jsi::core

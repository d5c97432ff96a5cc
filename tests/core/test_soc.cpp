#include "core/soc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/bist.hpp"
#include "core/session.hpp"
#include "jtag/master.hpp"
#include "obs/events.hpp"
#include "util/bitvec.hpp"

namespace jsi::core {
namespace {

using util::BitVec;
using util::Logic;

SocConfig small_cfg(std::size_t n = 4, bool enhanced = true,
                    std::size_t buses = 1) {
  SocConfig cfg;
  cfg.n_buses = buses;
  cfg.n_wires = n;
  cfg.m_extra_cells = 1;
  cfg.enhanced = enhanced;
  return cfg;
}

/// The device tests below run on the paper's one bus and on three buses
/// behind the same TAP.
const std::size_t kBusCounts[] = {1, 3};

TEST(SiSocDevice, ChainLengthIs2nPlusM) {
  SiSocDevice soc(small_cfg(6));
  EXPECT_EQ(soc.chain_length(), 13u);
  for (const std::size_t buses : kBusCounts) {
    SCOPED_TRACE(buses);
    SiSocDevice multi(small_cfg(4, true, buses));
    EXPECT_EQ(multi.chain_length(), 2u * buses * 4 + 1);
    EXPECT_EQ(multi.config().n_buses, buses);
    // [sending cells of every bus | OBSCs of every bus | extras].
    for (std::size_t b = 0; b < buses; ++b) {
      EXPECT_EQ(multi.obsc_first(b), (buses + b) * 4);
      for (std::size_t w = 0; w < 4; ++w) {
        EXPECT_EQ(multi.boundary().kind(b * 4 + w), bsc::CellKind::Pgbsc);
        EXPECT_EQ(multi.boundary().kind(multi.obsc_first(b) + w),
                  bsc::CellKind::Obsc);
      }
      EXPECT_EQ(multi.bus(b).n(), 4u);
    }
    EXPECT_EQ(multi.boundary().kind(2 * buses * 4), bsc::CellKind::Standard);
  }
}

TEST(SiSocDevice, RejectsDegenerateConfig) {
  for (const std::size_t buses : kBusCounts) {
    SCOPED_TRACE(buses);
    SocConfig cfg = small_cfg(1, true, buses);
    EXPECT_THROW(SiSocDevice soc(cfg), std::invalid_argument);
  }
  EXPECT_THROW(SiSocDevice soc(small_cfg(4, true, 0)), std::invalid_argument);
}

TEST(SiSocDevice, BusesHandedInMustMatchTheConfig) {
  si::BusParams p;
  p.n_wires = 4;
  std::vector<si::CoupledBus> two;
  two.emplace_back(p);
  two.emplace_back(p);
  EXPECT_THROW(SiSocDevice(small_cfg(4, true, 3), two), std::invalid_argument);
  EXPECT_THROW(SiSocDevice(small_cfg(6, true, 2), two), std::invalid_argument);

  two.front().inject_crosstalk_defect(1, 6.0);
  SiSocDevice soc(small_cfg(4, true, 2), std::move(two));
  EXPECT_NE(soc.bus(0).model().coupling(0), soc.bus(1).model().coupling(0))
      << "each moved-in bus keeps its own defects";
  EXPECT_DOUBLE_EQ(soc.config().bus.vdd, p.vdd);
  EXPECT_THROW(soc.bus(2), std::out_of_range);
  EXPECT_THROW(soc.nd_flags(2), std::out_of_range);
}

TEST(SiSocDevice, IdcodeReadsBackAfterReset) {
  for (const std::size_t buses : kBusCounts) {
    SCOPED_TRACE(buses);
    SiSocDevice soc(small_cfg(4, true, buses));
    jtag::TapMaster master(soc.tap());
    master.reset_to_idle();
    // IDCODE is the reset instruction; a 32-bit DR scan returns the id.
    const BitVec out = master.scan_dr(BitVec(32, false));
    EXPECT_EQ(out.to_u64(), soc.config().idcode | 1u);
    EXPECT_EQ(out.to_u64(), 0x0A571001u);
  }
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

/// Wire (b + 2) mod 4 of bus b: a different pin on each of up to four
/// buses.
std::size_t hot_wire(std::size_t b) { return (b + 2) % 4; }

TEST(SiSocDevice, ClampHoldsPinsWhileBypassing) {
  for (const std::size_t buses : kBusCounts) {
    SCOPED_TRACE(buses);
    SiSocDevice soc(small_cfg(4, true, buses));
    jtag::TapMaster master(soc.tap());
    master.reset_to_idle();
    // Drive a pattern with EXTEST: wire 2 of bus 0, wire 3 of bus 1, ...
    master.scan_ir(BitVec::from_u64(soc.tap().opcode(SiSocDevice::kExtest),
                                    soc.config().ir_width));
    const std::size_t len = soc.chain_length();
    BitVec bits(len, false);
    std::vector<std::string> want;
    for (std::size_t b = 0; b < buses; ++b) {
      bits.set(len - 1 - (4 * b + hot_wire(b)), true);
      want.push_back(BitVec::one_hot(4, hot_wire(b)).to_string());
    }
    master.scan_dr(bits);
    EXPECT_EQ(soc.driven_pins().to_string(), "0100");
    for (std::size_t b = 0; b < buses; ++b) {
      EXPECT_EQ(soc.driven_pins(b).to_string(), want[b]) << "bus " << b;
    }
    // CLAMP: scans now go through the 1-bit bypass, pins stay put.
    master.scan_ir(BitVec::from_u64(soc.tap().opcode(SiSocDevice::kClamp),
                                    soc.config().ir_width));
    const BitVec out = master.scan_dr(BitVec::from_string("101"));
    EXPECT_EQ(out.size(), 3u);  // bypass register: 1-bit delay path
    // The wires keep the clamped pattern even though the scan went through
    // BYPASS (core inputs stay on the isolated update stages, per Mode=1).
    EXPECT_EQ(soc.driven_pins().to_string(), "0100");
    for (std::size_t b = 0; b < buses; ++b) {
      EXPECT_EQ(soc.driven_pins(b).to_string(), want[b]) << "bus " << b;
    }
  }
}

TEST(SiSocDevice, HighzReleasesTheBus) {
  for (const std::size_t buses : kBusCounts) {
    SCOPED_TRACE(buses);
    SiSocDevice soc(small_cfg(4, true, buses));
    jtag::TapMaster master(soc.tap());
    master.reset_to_idle();
    master.scan_ir(BitVec::from_u64(soc.tap().opcode(SiSocDevice::kHighz),
                                    soc.config().ir_width));
    EXPECT_TRUE(soc.bus_released());
    EXPECT_EQ(soc.core_input(1), util::Logic::Z);
    // HIGHZ floats every bus: each receiving wire reads Z.
    for (std::size_t i = 0; i < 4 * buses; ++i) {
      EXPECT_EQ(soc.core_input(i), util::Logic::Z) << "wire " << i;
    }
    // Returning to SAMPLE re-drives the functional values.
    master.scan_ir(BitVec::from_u64(soc.tap().opcode(SiSocDevice::kSample),
                                    soc.config().ir_width));
    EXPECT_FALSE(soc.bus_released());
    EXPECT_EQ(soc.core_input(1), util::Logic::L0);
    for (std::size_t i = 0; i < 4 * buses; ++i) {
      EXPECT_EQ(soc.core_input(i), util::Logic::L0) << "wire " << i;
    }
  }
}

TEST(SiSocDevice, ResetEndsHighz) {
  // Test-Logic-Reset makes the reset instruction current, which ends
  // HIGHZ: the bus is driven again, by TMS reset and by TRST* alike.
  for (const std::size_t buses : kBusCounts) {
    for (const bool trst : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << (trst ? "TRST" : "TMS") << " buses " << buses);
      SiSocDevice soc(small_cfg(4, true, buses));
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
      // Wires count across buses in chain order: the last bus's wire 1.
      const std::size_t last = 4 * (buses - 1) + 1;
      soc.set_core_output(last, Logic::L1);
      EXPECT_EQ(soc.driven_pins(buses - 1).to_string(), "0010");
      EXPECT_EQ(soc.core_input(last), Logic::L1);
    }
  }
}

TEST(SiSocDevice, ResetClearsSensorFlags) {
  for (const std::size_t buses : kBusCounts) {
    SCOPED_TRACE(buses);
    SiSocDevice soc(small_cfg(8, true, buses));
    soc.bus(buses - 1).inject_crosstalk_defect(3, 7.0);
    if (buses == 1) {
      SiTestSession(soc).run(ObservationMethod::OnceAtEnd);
    } else {
      MultiBusSession(soc).run(ObservationMethod::OnceAtEnd);
    }
    const std::size_t fired = soc.nd_flags(buses - 1).popcount() +
                              soc.sd_flags(buses - 1).popcount();
    ASSERT_GT(fired, 0u);
    EXPECT_EQ(soc.boundary().nd().popcount() + soc.boundary().sd().popcount(),
              fired);
    jtag::TapMaster master(soc.tap());
    master.reset_to_idle();
    for (std::size_t b = 0; b < buses; ++b) {
      EXPECT_EQ(soc.nd_flags(b).popcount(), 0u);
      EXPECT_EQ(soc.sd_flags(b).popcount(), 0u);
    }
    EXPECT_EQ(soc.boundary().nd().popcount(), 0u);
    EXPECT_EQ(soc.boundary().sd().popcount(), 0u);
  }
}

TEST(SiSocDevice, OneBusSessionsRefuseSeveralBuses) {
  SiSocDevice enhanced(small_cfg(4, true, 2));
  EXPECT_THROW(SiTestSession session(enhanced), std::invalid_argument);
  EXPECT_THROW(SiBistController ctl(enhanced), std::invalid_argument);
  SiSocDevice conventional(small_cfg(4, false, 2));
  EXPECT_THROW(ConventionalSession session(conventional),
               std::invalid_argument);
  EXPECT_THROW(MultiBusSession session(conventional), std::invalid_argument);
}

/// The `b` fields of the DetectorFired records a device emits.
struct SensorIds final : obs::Sink {
  std::vector<std::int64_t> ids;
  void on_event(const obs::Event& e) override {
    if (e.kind == obs::EventKind::DetectorFired) ids.push_back(e.b);
  }
};

TEST(SiSocDevice, DetectorFiredNamesTheBusOnlyOnMultiBusDevices) {
  // One bus: b = -1, on both session kinds that drive it.
  for (const bool multibus : {false, true}) {
    SCOPED_TRACE(multibus ? "MultiBusSession" : "SiTestSession");
    SiSocDevice soc(small_cfg(8));
    soc.bus().inject_crosstalk_defect(3, 7.0);
    SensorIds sink;
    if (multibus) {
      MultiBusSession session(soc);
      session.set_sink(&sink);
      session.run(ObservationMethod::OnceAtEnd);
    } else {
      SiTestSession session(soc);
      session.set_sink(&sink);
      session.run(ObservationMethod::OnceAtEnd);
    }
    ASSERT_FALSE(sink.ids.empty());
    for (const std::int64_t id : sink.ids) EXPECT_EQ(id, -1);
  }
  // Two buses: b = the index of the bus whose sensor fired.
  SiSocDevice soc(small_cfg(8, true, 2));
  soc.bus(1).inject_crosstalk_defect(3, 7.0);
  SensorIds sink;
  MultiBusSession session(soc);
  session.set_sink(&sink);
  session.run(ObservationMethod::OnceAtEnd);
  ASSERT_FALSE(sink.ids.empty());
  for (const std::int64_t id : sink.ids) EXPECT_EQ(id, 1);
  soc.bus(0).inject_crosstalk_defect(5, 7.0);
  sink.ids.clear();
  session.run(ObservationMethod::OnceAtEnd);
  EXPECT_NE(std::find(sink.ids.begin(), sink.ids.end(), 0), sink.ids.end());
  EXPECT_NE(std::find(sink.ids.begin(), sink.ids.end(), 1), sink.ids.end());
}

}  // namespace
}  // namespace jsi::core

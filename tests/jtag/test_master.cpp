#include "jtag/master.hpp"

#include <gtest/gtest.h>

#include "bsc/obsc.hpp"
#include "bsc/pgbsc.hpp"
#include "bsc/standard.hpp"
#include "jtag/device.hpp"
#include "tick_only_port.hpp"
#include "util/bitvec.hpp"
#include "util/prng.hpp"

namespace jsi::jtag {
namespace {

using util::BitVec;

class MasterTest : public ::testing::Test {
 protected:
  MasterTest() : dev_("d", 4), master_(dev_) {
    dev_.add_data_register("R", std::make_shared<ShiftUpdateRegister>(8));
    dev_.add_instruction("I", 0b0001, "R");
  }
  TapDevice dev_;
  TapMaster master_;
};

TEST_F(MasterTest, ResetToIdleTakesSixClocks) {
  master_.reset_to_idle();
  EXPECT_EQ(master_.state(), TapState::RunTestIdle);
  EXPECT_EQ(master_.tck(), 6u);
}

TEST_F(MasterTest, ScanDrCostsLengthPlusFive) {
  master_.reset_to_idle();
  const auto before = master_.tck();
  master_.scan_dr(BitVec::zeros(8));
  EXPECT_EQ(master_.tck() - before, 8u + 5);
  EXPECT_EQ(master_.state(), TapState::RunTestIdle);
}

TEST_F(MasterTest, ScanIrCostsLengthPlusSix) {
  master_.reset_to_idle();
  const auto before = master_.tck();
  master_.scan_ir(BitVec::zeros(4));
  EXPECT_EQ(master_.tck() - before, 4u + 6);
}

TEST_F(MasterTest, PulseUpdateDrCostsFive) {
  master_.reset_to_idle();
  const auto before = master_.tck();
  master_.pulse_update_dr();
  EXPECT_EQ(master_.tck() - before, 5u);
  EXPECT_EQ(master_.state(), TapState::RunTestIdle);
}

TEST_F(MasterTest, SingleBitScanWorks) {
  master_.reset_to_idle();
  master_.scan_ir(BitVec::from_u64(0b1111, 4));  // BYPASS
  const BitVec out = master_.scan_dr(BitVec::from_string("1"));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0]);  // bypass captured 0
}

TEST_F(MasterTest, EmptyScansRejected) {
  master_.reset_to_idle();
  EXPECT_THROW(master_.scan_dr(BitVec()), std::invalid_argument);
  EXPECT_THROW(master_.scan_ir(BitVec()), std::invalid_argument);
}

TEST_F(MasterTest, ScansRequireRunTestIdle) {
  // Freshly constructed master mirrors Test-Logic-Reset.
  EXPECT_THROW(master_.scan_dr(BitVec::zeros(4)), std::logic_error);
  EXPECT_THROW(master_.scan_ir(BitVec::zeros(4)), std::logic_error);
  EXPECT_THROW(master_.pulse_update_dr(), std::logic_error);
  EXPECT_THROW(master_.run_idle(3), std::logic_error);
}

TEST_F(MasterTest, GotoStateNavigates) {
  master_.reset_to_idle();
  master_.goto_state(TapState::PauseDr);
  EXPECT_EQ(master_.state(), TapState::PauseDr);
  EXPECT_EQ(dev_.state(), TapState::PauseDr);
  master_.goto_state(TapState::RunTestIdle);
  EXPECT_EQ(master_.state(), TapState::RunTestIdle);
}

TEST_F(MasterTest, RunIdleSpendsExactClocks) {
  master_.reset_to_idle();
  const auto before = master_.tck();
  master_.run_idle(17);
  EXPECT_EQ(master_.tck() - before, 17u);
  EXPECT_EQ(master_.state(), TapState::RunTestIdle);
}

TEST_F(MasterTest, CounterResetForPhaseMetering) {
  master_.reset_to_idle();
  master_.reset_tck_counter();
  master_.pulse_update_dr();
  EXPECT_EQ(master_.tck(), 5u);
}

TEST_F(MasterTest, PausedScanShiftsTheSameBits) {
  master_.reset_to_idle();
  master_.scan_ir(BitVec::from_u64(0b0001, 4));
  master_.scan_dr(BitVec::from_string("11010010"));
  // Read back with pauses every 3 bits: identical data, more clocks.
  const auto before = master_.tck();
  const BitVec out = master_.scan_dr_paused(
      BitVec::from_string("11010010"), /*pause_every=*/3,
      /*pause_clocks=*/2);
  EXPECT_EQ(out.to_string(), "11010010");
  // 8+5 base clocks plus 2 pauses x (1 exit + 2 park + 1 exit2 + 1 back).
  EXPECT_EQ(master_.tck() - before, (8u + 5) + 2 * 5);
  EXPECT_EQ(master_.state(), TapState::RunTestIdle);
}

TEST_F(MasterTest, PausedScanRoundTripsThroughRegister) {
  master_.reset_to_idle();
  master_.scan_ir(BitVec::from_u64(0b0001, 4));
  master_.scan_dr_paused(BitVec::from_string("10011101"), 2, 5);
  const BitVec out = master_.scan_dr(BitVec::zeros(8));
  EXPECT_EQ(out.to_string(), "10011101");
}

TEST_F(MasterTest, PausedScanValidatesArguments) {
  master_.reset_to_idle();
  EXPECT_THROW(master_.scan_dr_paused(BitVec(), 3), std::invalid_argument);
  EXPECT_THROW(master_.scan_dr_paused(BitVec::zeros(4), 0),
               std::invalid_argument);
}

TEST_F(MasterTest, MirroredStateTracksDevice) {
  master_.reset_to_idle();
  master_.scan_ir(BitVec::from_u64(0b0001, 4));
  master_.scan_dr(BitVec::zeros(8));
  EXPECT_EQ(master_.state(), dev_.state());
}

// ---------------------------------------------------------------------------
// Burst path vs per-edge path
// ---------------------------------------------------------------------------

/// Two equal devices: `dev_` behind its own shift_run burst, `ref_`
/// behind a TickOnlyPort that clocks it edge by edge. Each has a 13-cell
/// boundary register (SAMPLE), IDCODE and the built-in BYPASS.
class BurstTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kCells = 13;

  BurstTest() : ticks_(ref_), burst_(dev_), per_edge_(ticks_) {
    for (TapDevice* d : {&dev_, &ref_}) {
      auto br = std::make_shared<BoundaryRegister>([] { return CellCtl{}; });
      for (std::size_t k = 0; k < kCells; ++k) {
        if (k % 3 == 0) {
          br->add_cell(std::make_unique<bsc::StandardBsc>());
        } else if (k % 3 == 1) {
          br->add_cell(std::make_unique<bsc::Pgbsc>());
        } else {
          br->add_cell(
              std::make_unique<bsc::Obsc>(si::NdParams{}, si::SdParams{}));
        }
        br->cell(k).set_parallel_in(k % 2 ? util::Logic::L1
                                          : util::Logic::L0);
      }
      d->add_data_register("BOUNDARY", br);
      d->add_instruction("SAMPLE", 0b0001, "BOUNDARY");
      d->add_idcode(0x1234'5679u, 0b0010);
    }
    burst_.reset_to_idle();
    per_edge_.reset_to_idle();
  }

  static BitVec random_bits(std::size_t n, std::uint64_t seed) {
    util::Prng rng(seed);
    BitVec v(n, false);
    for (std::size_t i = 0; i < n; ++i) v.set(i, rng.next_bool());
    return v;
  }

  void load(std::uint64_t opcode) {
    const BitVec ir = BitVec::from_u64(opcode, 4);
    EXPECT_EQ(burst_.scan_ir(ir), per_edge_.scan_ir(ir));
  }

  void expect_twins() {
    EXPECT_EQ(burst_.tck(), per_edge_.tck());
    EXPECT_EQ(dev_.tck_count(), ref_.tck_count());
    EXPECT_EQ(dev_.state(), ref_.state());
    EXPECT_EQ(dev_.current_instruction(), ref_.current_instruction());
    auto& a = dynamic_cast<BoundaryRegister&>(dev_.data_register("BOUNDARY"));
    auto& b = dynamic_cast<BoundaryRegister&>(ref_.data_register("BOUNDARY"));
    for (std::size_t k = 0; k < kCells; ++k) {
      EXPECT_EQ(a.cell(k).ff1(), b.cell(k).ff1()) << "cell " << k;
      EXPECT_EQ(a.cell(k).parallel_out(CellCtl{.mode = true}),
                b.cell(k).parallel_out(CellCtl{.mode = true}))
          << "cell " << k;
    }
  }

  TapDevice dev_{"burst", 4};
  TapDevice ref_{"ticks", 4};
  TickOnlyPort ticks_;
  TapMaster burst_;
  TapMaster per_edge_;
};

TEST_F(BurstTest, BoundaryScansMatchPerEdgeScans) {
  load(0b0001);  // SAMPLE
  std::uint64_t seed = 1;
  for (const std::size_t len : {kCells, std::size_t{1}, kCells - 1,
                                kCells + 1, 2 * kCells + 3}) {
    SCOPED_TRACE(len);
    const BitVec in = random_bits(len, seed++);
    EXPECT_EQ(burst_.scan_dr(in), per_edge_.scan_dr(in));
    expect_twins();
  }
}

TEST_F(BurstTest, IdcodeAndBypassScansMatchPerEdgeScans) {
  load(0b0010);  // IDCODE
  for (const std::size_t len : {32, 40, 7}) {
    const BitVec in = random_bits(len, len);
    EXPECT_EQ(burst_.scan_dr(in), per_edge_.scan_dr(in));
    expect_twins();
  }
  load(0b1111);  // BYPASS
  const BitVec in = random_bits(9, 9);
  EXPECT_EQ(burst_.scan_dr(in), per_edge_.scan_dr(in));
  expect_twins();
}

TEST_F(BurstTest, IrAndPausedScansMatchPerEdgeScans) {
  load(0b0001);
  expect_twins();
  for (const std::size_t every : {std::size_t{1}, std::size_t{3}, kCells}) {
    SCOPED_TRACE(every);
    const BitVec in = random_bits(kCells + 4, every);
    EXPECT_EQ(burst_.scan_dr_paused(in, every, 2),
              per_edge_.scan_dr_paused(in, every, 2));
    expect_twins();
  }
}

TEST_F(BurstTest, ShiftRunOutsideShiftDrTicksEachEdge) {
  // Drive the ports directly: from Run-Test/Idle, Shift-IR and Pause-DR
  // the device takes the per-edge default, like the TickOnlyPort.
  const BitVec in = BitVec::from_string("0110");
  const TapState starts[] = {TapState::RunTestIdle, TapState::ShiftIr,
                             TapState::PauseDr};
  for (const TapState start : starts) {
    SCOPED_TRACE(tap_state_name(start));
    burst_.goto_state(start);
    per_edge_.goto_state(start);
    EXPECT_EQ(dev_.shift_run(in), ticks_.shift_run(in));
    expect_twins();
    // The masters' mirrors did not see those edges: bring all four back
    // in step through Test-Logic-Reset.
    dev_.async_reset();
    ref_.async_reset();
    burst_.reset_to_idle();
    per_edge_.reset_to_idle();
  }
}

}  // namespace
}  // namespace jsi::jtag

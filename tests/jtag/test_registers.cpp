#include "jtag/registers.hpp"

#include <gtest/gtest.h>

#include "bsc/obsc.hpp"
#include "bsc/pgbsc.hpp"
#include "bsc/standard.hpp"
#include "util/prng.hpp"

namespace jsi::jtag {
namespace {

using util::BitVec;
using util::Logic;

TEST(BypassRegister, CapturesZeroAndDelaysByOne) {
  BypassRegister r;
  EXPECT_EQ(r.length(), 1u);
  r.capture();
  EXPECT_FALSE(r.shift(true));   // captured 0 comes out first
  EXPECT_TRUE(r.shift(false));   // then the 1 we shifted in
  EXPECT_FALSE(r.shift(false));
}

TEST(IdcodeRegister, Bit0ForcedToOne) {
  IdcodeRegister r(0x12345678u & ~1u);
  EXPECT_EQ(r.idcode() & 1u, 1u);
  EXPECT_EQ(r.length(), 32u);
}

TEST(IdcodeRegister, CaptureThenShiftOutLsbFirst) {
  const std::uint32_t id = 0xDEADBEEFu | 1u;
  IdcodeRegister r(id);
  r.capture();
  std::uint32_t got = 0;
  for (int i = 0; i < 32; ++i) {
    if (r.shift(false)) got |= 1u << i;
  }
  EXPECT_EQ(got, id);
}

TEST(ShiftUpdateRegister, CaptureLoadsHeldValue) {
  ShiftUpdateRegister r(4);
  // Shift bits 1,1,0,1 in (first bit travels to the MSB end), update,
  // capture, shift out: the same bits come back in the same order.
  for (bool b : {true, true, false, true}) r.shift(b);
  r.update();
  EXPECT_EQ(r.held().to_string(), "1101");  // first-in at the MSB
  r.capture();
  std::string out;
  for (int i = 0; i < 4; ++i) out.push_back(r.shift(false) ? '1' : '0');
  EXPECT_EQ(out, "1101");  // first-out is the MSB = first-in bit
}

TEST(ShiftUpdateRegister, ResetClearsBothStages) {
  ShiftUpdateRegister r(3);
  r.shift(true);
  r.update();
  r.reset();
  EXPECT_EQ(r.held().popcount(), 0u);
  EXPECT_EQ(r.shift_stage().popcount(), 0u);
}

TEST(BoundaryRegister, ShiftsThroughAllCellsInOrder) {
  CellCtl ctl;
  BoundaryRegister br([&] { return ctl; });
  for (int i = 0; i < 3; ++i) {
    br.add_cell(std::make_unique<bsc::StandardBsc>());
  }
  EXPECT_EQ(br.length(), 3u);
  // Preload each cell's FF1 via shifting: after 3 shifts of 1,0,1 the
  // chain holds cell0=1 (last in), cell1=0, cell2=1 (first in).
  br.shift(true);
  br.shift(false);
  br.shift(true);
  auto& c0 = static_cast<bsc::StandardBsc&>(br.cell(0));
  auto& c1 = static_cast<bsc::StandardBsc&>(br.cell(1));
  auto& c2 = static_cast<bsc::StandardBsc&>(br.cell(2));
  EXPECT_TRUE(c0.ff1());
  EXPECT_FALSE(c1.ff1());
  EXPECT_TRUE(c2.ff1());
}

TEST(BoundaryRegister, CaptureReadsParallelInputs) {
  CellCtl ctl;
  BoundaryRegister br([&] { return ctl; });
  br.add_cell(std::make_unique<bsc::StandardBsc>());
  br.add_cell(std::make_unique<bsc::StandardBsc>());
  br.cell(0).set_parallel_in(Logic::L1);
  br.cell(1).set_parallel_in(Logic::L0);
  br.capture();
  // Shift out: first bit is cell1's FF1 (nearest TDO).
  EXPECT_FALSE(br.shift(false));
  EXPECT_TRUE(br.shift(false));
}

TEST(BoundaryRegister, UpdateDrivesModePath) {
  CellCtl ctl;
  ctl.mode = true;
  BoundaryRegister br([&] { return ctl; });
  br.add_cell(std::make_unique<bsc::StandardBsc>());
  br.cell(0).set_parallel_in(Logic::L0);
  br.shift(true);
  br.update();
  const auto out = br.parallel_out(0, 1);
  EXPECT_EQ(out[0], Logic::L1);  // FF2 drives, not the pin
}

TEST(BoundaryRegister, ResetClearsCells) {
  CellCtl ctl;
  ctl.mode = true;
  BoundaryRegister br([&] { return ctl; });
  br.add_cell(std::make_unique<bsc::StandardBsc>());
  br.shift(true);
  br.update();
  br.reset();
  EXPECT_EQ(br.parallel_out(0, 1)[0], Logic::L0);
}

/// `n` cells of seeded random types (standard, PGBSC, OBSC) whose FF1s
/// hold seeded random bits. Equal seeds give equal registers.
std::unique_ptr<BoundaryRegister> random_register(std::size_t n,
                                                  std::uint64_t seed) {
  auto br = std::make_unique<BoundaryRegister>([] { return CellCtl{}; });
  util::Prng rng(seed);
  for (std::size_t k = 0; k < n; ++k) {
    switch (rng.next_below(3)) {
      case 0: br->add_cell(std::make_unique<bsc::StandardBsc>()); break;
      case 1: br->add_cell(std::make_unique<bsc::Pgbsc>()); break;
      default:
        br->add_cell(
            std::make_unique<bsc::Obsc>(si::NdParams{}, si::SdParams{}));
    }
  }
  for (std::size_t k = 0; k < n; ++k) br->shift(rng.next_bool());
  return br;
}

TEST(BoundaryRegister, ShiftRunEqualsShiftingBitByBit) {
  for (const std::size_t n : {1, 2, 17, 64, 129}) {
    for (const std::size_t len : {std::size_t{1}, n - 1, n, n + 1, 2 * n + 3}) {
      SCOPED_TRACE("n " + std::to_string(n) + " len " + std::to_string(len));
      const std::uint64_t seed = 100 * n + len;
      auto burst = random_register(n, seed);
      auto twin = random_register(n, seed);
      util::Prng rng(~seed);
      BitVec in(len, false);
      for (std::size_t i = 0; i < len; ++i) in.set(i, rng.next_bool());

      BitVec out(len, false);
      burst->shift_run(in, out);
      BitVec ref(len, false);
      for (std::size_t i = 0; i < len; ++i) ref.set(i, twin->shift(in[i]));

      EXPECT_EQ(out, ref);
      for (std::size_t k = 0; k < n; ++k) {
        EXPECT_EQ(burst->cell(k).ff1(), twin->cell(k).ff1()) << "cell " << k;
      }
    }
  }
}

}  // namespace
}  // namespace jsi::jtag

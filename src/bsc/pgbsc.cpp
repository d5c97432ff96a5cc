#include "bsc/pgbsc.hpp"

namespace jsi::bsc {

void Pgbsc::capture(const jtag::CellCtl& c) {
  // Fig 6: FF1's data input is TDI only — there is no parallel capture
  // path, so in SI mode Capture-DR preserves the victim-select word.
  // Outside SI mode behave like a standard output cell (SAMPLE).
  if (!c.si) ff1_ = util::to_bool(core_out_);
}

void Pgbsc::update(const jtag::CellCtl& c) {
  clocked_ff2_ = false;
  if (c.si && !c.gen) {
    // O-SITEST: SI keeps the scan datapath reconfigured but the pattern
    // machinery is clock-gated, so read-out scans leave FF2/FF3 (and the
    // driven bus) untouched.
    return;
  }
  if (!c.si) {
    // Normal mode (Table 1 row 3): FF2 loads FF1, FF3 re-arms to 1 so the
    // upcoming SI session starts with a deterministic divider phase.
    ff2_ = ff1_;
    ff3_ = true;
    clocked_ff2_ = true;
    return;
  }
  // SI mode: FF3 toggles on every Update-DR; FF2 is clocked either by
  // Update-DR itself (aggressor) or by FF3's rising edge (victim).
  const bool ff3_old = ff3_;
  ff3_ = !ff3_;
  const bool victim = ff1_;
  const bool clk_ff2 = victim ? (!ff3_old && ff3_) : true;
  if (clk_ff2) {
    ff2_ = !ff2_;
    clocked_ff2_ = true;
  }
}

void Pgbsc::reset() {
  ff1_ = false;
  ff2_ = false;
  ff3_ = true;
  clocked_ff2_ = false;
}

util::Logic Pgbsc::parallel_out(const jtag::CellCtl& c) const {
  return c.mode ? util::to_logic(ff2_) : core_out_;
}

}  // namespace jsi::bsc

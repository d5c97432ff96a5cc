#include "bsc/obsc.hpp"

namespace jsi::bsc {

void Obsc::capture(const jtag::CellCtl& c) {
  if (c.si) {
    // sel = 0 (Table 4, SI=1 & ShiftDR=0): present the selected sensor FF.
    ff1_ = c.nd_sd ? nd_.flag() : sd_.flag();
  } else {
    ff1_ = util::to_bool(pin_);
  }
}

void Obsc::update(const jtag::CellCtl&) { ff2_ = ff1_; }

void Obsc::reset() {
  ff1_ = false;
  ff2_ = false;
  nd_.clear();
  sd_.clear();
}

util::Logic Obsc::parallel_out(const jtag::CellCtl& c) const {
  return c.mode ? util::to_logic(ff2_) : pin_;
}

void Obsc::observe(si::WaveformView w, util::Logic initial,
                   util::Logic expected, const jtag::CellCtl& c) {
  latch({nd_.violates(w, initial, expected), sd_.violates(w, initial, expected)},
        c);
}

void Obsc::latch(si::Verdicts v, const jtag::CellCtl& c) {
  nd_.set_enable(c.ce);
  sd_.set_enable(c.ce);
  nd_.latch(v.nd);
  sd_.latch(v.sd);
}

}  // namespace jsi::bsc

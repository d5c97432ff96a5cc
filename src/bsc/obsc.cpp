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
  const bool nd_was = nd_.flag();
  const bool sd_was = sd_.flag();
  nd_.latch(v.nd);
  sd_.latch(v.sd);
  if (sink_) {
    if (!nd_was && nd_.flag()) fire("ND");
    if (!sd_was && sd_.flag()) fire("SD");
  }
}

void Obsc::fire(const char* which) {
  obs::Event e;
  e.kind = obs::EventKind::DetectorFired;
  e.name = which;
  e.a = wire_id_;
  e.b = bus_id_;
  sink_->on_event(e);
}

}  // namespace jsi::bsc

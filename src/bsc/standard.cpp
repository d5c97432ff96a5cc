#include "bsc/standard.hpp"

namespace jsi::bsc {

void StandardBsc::capture(const jtag::CellCtl&) {
  ff1_ = util::to_bool(pin_);
}

void StandardBsc::update(const jtag::CellCtl&) { ff2_ = ff1_; }

void StandardBsc::reset() {
  ff1_ = false;
  ff2_ = false;
}

util::Logic StandardBsc::parallel_out(const jtag::CellCtl& c) const {
  return c.mode ? util::to_logic(ff2_) : pin_;
}

}  // namespace jsi::bsc

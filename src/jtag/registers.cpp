#include "jtag/registers.hpp"

namespace jsi::jtag {

std::size_t BoundaryRegister::add_cell(std::unique_ptr<BoundaryCell> cell) {
  cells_.push_back(std::move(cell));
  return cells_.size() - 1;
}

void BoundaryRegister::capture() {
  const CellCtl c = ctl_();
  for (auto& cell : cells_) cell->capture(c);
}

bool BoundaryRegister::shift(bool tdi) {
  bool bit = tdi;
  for (auto& cell : cells_) bit = cell->shift_bit(bit);
  return bit;
}

void BoundaryRegister::shift_run(const util::BitVec& in, util::BitVec& out) {
  const std::size_t n = cells_.size();
  const std::size_t len = in.size();
  // From the TDO end down, so cell k - len still holds its old FF1 when
  // cell k reads it.
  for (std::size_t k = n; k-- > 0;) {
    const bool next = k >= len ? cells_[k - len]->ff1() : in[len - 1 - k];
    const bool old = cells_[k]->shift_bit(next);
    if (n - 1 - k < len) out.set(n - 1 - k, old);
  }
  for (std::size_t i = n; i < len; ++i) out.set(i, in[i - n]);
}

void BoundaryRegister::update() {
  const CellCtl c = ctl_();
  for (auto& cell : cells_) cell->update(c);
}

void BoundaryRegister::reset() {
  for (auto& cell : cells_) cell->reset();
}

std::vector<util::Logic> BoundaryRegister::parallel_out(
    std::size_t first, std::size_t count) const {
  const CellCtl c = ctl_();
  std::vector<util::Logic> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(cells_.at(first + i)->parallel_out(c));
  }
  return out;
}

}  // namespace jsi::jtag

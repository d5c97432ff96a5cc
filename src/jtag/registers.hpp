#ifndef JSI_JTAG_REGISTERS_HPP
#define JSI_JTAG_REGISTERS_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "jtag/cell.hpp"
#include "util/bitvec.hpp"

namespace jsi::jtag {

/// A test data register selectable between TDI and TDO (1149.1 §9).
class DataRegister {
 public:
  virtual ~DataRegister() = default;

  /// Number of shift stages.
  virtual std::size_t length() const = 0;

  /// Capture-DR action.
  virtual void capture() = 0;

  /// Shift-DR action: shift one stage, consuming `tdi`, returning TDO.
  virtual bool shift(bool tdi) = 0;

  /// `in.size()` Shift-DR actions in a row: `in[i]` enters on the i-th and
  /// `out[i]` receives its TDO. `out` must hold `in.size()` bits. Equal to
  /// calling `shift` once per bit, which is what the default does.
  virtual void shift_run(const util::BitVec& in, util::BitVec& out) {
    for (std::size_t i = 0; i < in.size(); ++i) out.set(i, shift(in[i]));
  }

  /// Update-DR action (no-op for registers without an update stage).
  virtual void update() {}

  /// Test-Logic-Reset action.
  virtual void reset() {}
};

/// The mandatory single-bit bypass register (1149.1 §10): captures 0,
/// provides a one-TCK delay from TDI to TDO.
class BypassRegister final : public DataRegister {
 public:
  std::size_t length() const override { return 1; }
  void capture() override { bit_ = false; }
  bool shift(bool tdi) override {
    const bool out = bit_;
    bit_ = tdi;
    return out;
  }

 private:
  bool bit_ = false;
};

/// The 32-bit device-identification register (1149.1 §12). Capture loads
/// the IDCODE value; bit 0 is fixed to 1 per the standard.
class IdcodeRegister final : public DataRegister {
 public:
  explicit IdcodeRegister(std::uint32_t idcode) : idcode_(idcode | 1u) {}

  std::uint32_t idcode() const { return idcode_; }
  std::size_t length() const override { return 32; }
  void capture() override { shift_ = idcode_; }
  bool shift(bool tdi) override {
    const bool out = shift_ & 1u;
    shift_ = (shift_ >> 1) | (tdi ? 0x8000'0000u : 0u);
    return out;
  }

 private:
  std::uint32_t idcode_;
  std::uint32_t shift_ = 0;
};

/// General-purpose shift + update register for design-specific DRs.
class ShiftUpdateRegister final : public DataRegister {
 public:
  explicit ShiftUpdateRegister(std::size_t n_bits)
      : shift_(n_bits, false), hold_(n_bits, false) {}

  std::size_t length() const override { return shift_.size(); }
  void capture() override { shift_ = hold_; }
  bool shift(bool tdi) override { return shift_.shift_in(tdi); }
  void update() override { hold_ = shift_; }
  void reset() override {
    shift_ = util::BitVec(shift_.size(), false);
    hold_ = util::BitVec(hold_.size(), false);
  }

  const util::BitVec& held() const { return hold_; }
  const util::BitVec& shift_stage() const { return shift_; }

 private:
  util::BitVec shift_;
  util::BitVec hold_;
};

/// The boundary-scan register: an ordered chain of `BoundaryCell`s, cell 0
/// nearest TDI. Controls (Mode/SI/CE/ND-SD) are supplied per call by the
/// owning device through a provider function so instruction decode stays in
/// one place. Shifting reads no control: every cell's shift stage is its
/// FF1.
class BoundaryRegister final : public DataRegister {
 public:
  using CtlProvider = std::function<CellCtl()>;

  explicit BoundaryRegister(CtlProvider ctl) : ctl_(std::move(ctl)) {}

  /// Append a cell at the TDO end; returns its index.
  std::size_t add_cell(std::unique_ptr<BoundaryCell> cell);

  std::size_t length() const override { return cells_.size(); }
  void capture() override;
  bool shift(bool tdi) override;
  /// One pass over the cells for the whole run, not one per bit: after L
  /// shifts of N cells, TDO bit i is cell N-1-i's old FF1 (i < N) or
  /// in[i-N], and cell k holds in[L-1-k] (k < L) or cell k-L's old FF1.
  void shift_run(const util::BitVec& in, util::BitVec& out) override;
  void update() override;
  void reset() override;

  BoundaryCell& cell(std::size_t i) { return *cells_.at(i); }
  const BoundaryCell& cell(std::size_t i) const { return *cells_.at(i); }

  /// Parallel outputs of cells [first, first+count) under current controls.
  std::vector<util::Logic> parallel_out(std::size_t first,
                                        std::size_t count) const;

 private:
  CtlProvider ctl_;
  std::vector<std::unique_ptr<BoundaryCell>> cells_;
};

}  // namespace jsi::jtag

#endif  // JSI_JTAG_REGISTERS_HPP

#ifndef JSI_JTAG_CELL_HPP
#define JSI_JTAG_CELL_HPP

#include "util/logic.hpp"

namespace jsi::jtag {

/// Control signals broadcast to every boundary-scan cell, decoded from the
/// current instruction by the TAP (paper §4.1).
///
/// * `mode`  — standard 1149.1 Mode: output cells drive their update FF to
///             the pin instead of the functional core value (EXTEST-like).
/// * `si`    — signal-integrity test mode, asserted by G-SITEST and
///             O-SITEST; repurposes the PGBSC/OBSC datapaths (Tables 1, 3).
/// * `ce`    — cell enable for the ND/SD sensors; G-SITEST sets CE=1 so
///             violations latch, O-SITEST sets CE=0 so the scan-out cannot
///             disturb the captured flags.
/// * `gen`   — pattern-generation enable, asserted only by G-SITEST: the
///             PGBSC toggle machinery (FF2/FF3) runs only while `gen` is
///             high and *holds* during O-SITEST scans, so reading the
///             sensors out mid-session (observation Method 3) cannot
///             disturb the generated sequence or the bus.
/// * `nd_sd` — which sensor flip-flop the OBSC presents for capture during
///             O-SITEST: true = ND, false = SD. Complemented at Update-DR
///             between the two read-out passes.
struct CellCtl {
  bool mode = false;
  bool si = false;
  bool ce = false;
  bool gen = false;
  bool nd_sd = true;
};

/// One stage of the boundary-scan register.
///
/// The device invokes `capture`/`shift_bit`/`update` according to the TAP
/// state (see TapDevice::tick); `set_parallel_in` and `parallel_out` are the
/// functional-path connections to the pin / core logic.
///
/// Every cell's shift stage is the same single flip-flop, FF1, so it lives
/// here and is not virtual: what a cell type varies is what Capture-DR
/// loads into FF1 and what Update-DR does with it.
class BoundaryCell {
 public:
  virtual ~BoundaryCell() = default;

  /// Capture-DR behaviour for this cell under controls `c`.
  virtual void capture(const CellCtl& c) = 0;

  /// Shift-DR: FF1 takes the bit arriving from the TDI side; its old
  /// content leaves toward TDO. No control signal changes the shift path.
  bool shift_bit(bool tdi) {
    const bool out = ff1_;
    ff1_ = tdi;
    return out;
  }

  /// Shift-stage (FF1) content.
  bool ff1() const { return ff1_; }

  /// Update-DR behaviour under controls `c`.
  virtual void update(const CellCtl& c) = 0;

  /// Test-Logic-Reset: return the cell to its power-up state.
  virtual void reset() = 0;

  /// Drive the cell's parallel input (pin for input cells, core output for
  /// output cells).
  virtual void set_parallel_in(util::Logic v) = 0;

  /// The cell's parallel output (core input for input cells, pin for output
  /// cells) under controls `c`.
  virtual util::Logic parallel_out(const CellCtl& c) const = 0;

 protected:
  bool ff1_ = false;
};

}  // namespace jsi::jtag

#endif  // JSI_JTAG_CELL_HPP

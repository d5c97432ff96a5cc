#ifndef JSI_BSC_PGBSC_HPP
#define JSI_BSC_PGBSC_HPP

#include "jtag/cell.hpp"

namespace jsi::bsc {

/// Pattern-Generation Boundary-Scan Cell (paper Fig 6, Table 1).
///
/// A sending-side cell that generates the reordered Maximum-Aggressor test
/// patterns in hardware. Three flip-flops:
///
///  * **FF1** — scan stage, holds the one-hot *victim-select* bit
///    (Table 2). Its scan input is TDI only: in SI mode Capture-DR leaves
///    it untouched so shifting a single bit rotates the victim.
///  * **FF2** — pattern/update stage driving the interconnect when
///    Mode=1. In SI mode its next value is its own complement.
///  * **FF3** — toggle stage dividing the Update-DR rate by two; the mux
///    `Q1·SI` selects FF3's output as FF2's clock in victim mode so the
///    victim line transitions at half the aggressor frequency (Fig 7).
///
/// Operating modes (Table 1):
///   | mode      | Q1 | SI | FF2 clock      | FF2 data |
///   | victim    | 1  | 1  | Update-DR / 2  | ~Q2      |
///   | aggressor | 0  | 1  | Update-DR      | ~Q2      |
///   | normal    | x  | 0  | Update-DR      | Q1       |
///
/// FF3 is (re)initialized to 1 by reset and by any non-SI Update-DR (the
/// SAMPLE/PRELOAD pass that loads the initial value), so the first SI
/// Update-DR produces a falling FF3 edge and the victim's first toggle
/// lands on the *second* Update-DR — giving the Fig 5 sequence
/// {Pg, Rs, P̄g} from initial 0 and {Ng, Fs, N̄g} from initial 1.
class Pgbsc : public jtag::BoundaryCell {
 public:
  Pgbsc() = default;

  void capture(const jtag::CellCtl& c) override;
  void update(const jtag::CellCtl& c) override;
  void reset() override;

  void set_parallel_in(util::Logic v) override { core_out_ = v; }
  util::Logic parallel_out(const jtag::CellCtl& c) const override;

  /// Victim-select bit (FF1 / Q1): 1 = this wire is the victim.
  bool q1() const { return ff1_; }
  /// Pattern stage (FF2 / Q2): the value driven onto the wire in SI mode.
  bool q2() const { return ff2_; }
  /// Divide-by-two stage (FF3 / Q3).
  bool q3() const { return ff3_; }

  /// True when the last SI-mode update clocked FF2 (used by the Fig 7
  /// waveform bench to display CLK-FF2).
  bool last_update_clocked_ff2() const { return clocked_ff2_; }

 private:
  util::Logic core_out_ = util::Logic::X;
  bool ff2_ = false;
  bool ff3_ = true;
  bool clocked_ff2_ = false;
};

}  // namespace jsi::bsc

#endif  // JSI_BSC_PGBSC_HPP

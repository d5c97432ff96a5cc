#ifndef JSI_BSC_OBSC_HPP
#define JSI_BSC_OBSC_HPP

#include "jtag/cell.hpp"
#include "si/detectors.hpp"
#include "si/waveform.hpp"

namespace jsi::bsc {

/// Observation Boundary-Scan Cell (paper Fig 9, Tables 3-4).
///
/// A receiving-side cell that embeds the Noise Detector (ND) and Skew
/// Detector (SD) sensors. During G-SITEST the sensors are enabled (CE=1)
/// and their sticky flip-flops latch any integrity violation seen on the
/// interconnect. During O-SITEST, Capture-DR loads the selected sensor
/// flip-flop into FF1 (`sel`=0, Table 4: SI=1 and ShiftDR=0) and the
/// subsequent Shift-DR reforms the chain and scans the flags out; the
/// ND/SD select toggles at Update-DR so two passes read both sensors.
///
/// Capture mux (Table 4):
///   SI | ShiftDR | sel | FF1 source
///    0 |    x    |  1  | pin (standard capture)
///    1 |    0    |  0  | ND or SD flip-flop (per nd_sd)
///    1 |    1    |  1  | scan chain (structural shift path)
class Obsc : public jtag::BoundaryCell {
 public:
  Obsc(si::NdParams nd, si::SdParams sd) : nd_(nd), sd_(sd) {}

  void capture(const jtag::CellCtl& c) override;
  void update(const jtag::CellCtl& c) override;
  void reset() override;

  void set_parallel_in(util::Logic v) override { pin_ = v; }
  util::Logic parallel_out(const jtag::CellCtl& c) const override;

  /// Feed one receiving-end waveform to the sensors: scan it with both
  /// (NdCell/SdCell::violates), then latch(). `initial` is the wire's
  /// driven logic level before this bus transition; `expected` the level
  /// after it. The device path judges store entries instead (see
  /// core::SiSocDevice's sensor loop).
  void observe(si::WaveformView w, util::Logic initial,
               util::Logic expected, const jtag::CellCtl& c);

  /// Latch the verdicts of this cell's wire into the sticky sensor
  /// flags. Honors CE: with c.ce == false the flags are untouched ("the
  /// captured data in their flip-flops remain unchanged"). The devices
  /// latch whole runs of wires into a PlaneRegister instead; this is the
  /// per-cell reference it is tested against.
  void latch(si::Verdicts v, const jtag::CellCtl& c);

  const si::NdCell& nd() const { return nd_; }
  const si::SdCell& sd() const { return sd_; }

  bool ff2() const { return ff2_; }

 private:
  si::NdCell nd_;
  si::SdCell sd_;
  util::Logic pin_ = util::Logic::X;
  bool ff2_ = false;
};

}  // namespace jsi::bsc

#endif  // JSI_BSC_OBSC_HPP

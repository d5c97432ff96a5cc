#ifndef JSI_SI_DETECTORS_HPP
#define JSI_SI_DETECTORS_HPP

#include <optional>

#include "si/waveform.hpp"
#include "sim/time.hpp"
#include "util/logic.hpp"

namespace jsi::si {

/// Behavioural parameters of the Noise Detector cell (paper Fig 1).
///
/// The physical cell is a cross-coupled PMOS sense amplifier with
/// hysteresis: it fires when the monitored node crosses `V_Hthr` into the
/// vulnerable region and releases only when the node returns below
/// `V_Hmin`. We express both as fractions of Vdd measured as *deviation
/// from the wire's nominal rail*, which covers positive glitches on a low
/// line and negative glitches on a high line with one mirrored pair of
/// thresholds.
struct NdParams {
  double vdd = 1.8;
  double v_hthr_frac = 0.45;     ///< deviation that arms the detector
  double v_hmin_frac = 0.35;     ///< deviation below which it releases
  double overshoot_frac = 0.25;  ///< excursion beyond the rail (> Vdd or
                                 ///< < GND) that also counts as noise

  bool operator==(const NdParams&) const = default;
};

/// Behavioural Noise Detector (ND) cell.
///
/// `violates()` judges one receiving-end waveform; `latch()` sets the
/// sticky flag — the "FF set to 1" of the paper's OBSC — on a violation
/// while the cell is enabled (CE=1). The flag survives until `clear()`,
/// matching "if CE=0 the cells are disabled but the captured data in
/// their flip-flops remain unchanged".
class NdCell {
 public:
  explicit NdCell(NdParams p = {}) : p_(p) {}

  const NdParams& params() const { return p_; }

  /// CE signal: when false, latch() leaves the flag untouched.
  void set_enable(bool ce) { ce_ = ce; }
  bool enabled() const { return ce_; }

  /// Pure query: would this waveform set the flag? (No state change.)
  /// The reference scan: CoupledBus::judge reaches the same verdict from
  /// a wire's recipe by a WireProbe, which reads only the samples that
  /// decide it, and falls back to this scan when it cannot prove it.
  /// Scans `w` given the line's driven logic level before (`initial`) and
  /// after (`expected`) the transition. Passing the *driven* final level —
  /// rather than inferring it from the waveform — lets the cell flag a
  /// line that erroneously settles at the wrong rail (e.g. a slow droop).
  /// Takes a non-owning view so batched (store-backed) waveforms are
  /// scanned without copies; an owning `Waveform` converts implicitly.
  bool violates(WaveformView w, util::Logic initial,
                util::Logic expected) const;

  /// Feed one verdict of violates() (scanned, or decided from a recipe by
  /// CoupledBus::judge): sets the flag when the cell is enabled and
  /// `violation` holds.
  void latch(bool violation) {
    if (ce_ && violation) flag_ = true;
  }

  /// Sticky violation flag (the ND flip-flop of the OBSC).
  bool flag() const { return flag_; }

  /// Reset the sticky flip-flop (Test-Logic-Reset / new test session).
  void clear() { flag_ = false; }

 private:
  NdParams p_;
  bool ce_ = false;
  bool flag_ = false;
};

/// Behavioural parameters of the Skew Detector cell (paper Fig 2).
///
/// The physical cell delays the capture clock by a designer-chosen amount
/// (odd inverter chain) and compares it with the interconnect output; a
/// pulse appears when the signal is still in transit after the delayed
/// clock edge. Behaviourally: a transitioning wire must have made its last
/// crossing of the receiver threshold by `skew_budget`, and must settle to
/// the driven value.
struct SdParams {
  double vdd = 1.8;
  sim::Time skew_budget = 150 * sim::kPs;  ///< skew-immune window
  double vth_frac = 0.5;                   ///< receiver threshold

  bool operator==(const SdParams&) const = default;
};

/// Behavioural Skew Detector (SD) cell with a sticky violation flip-flop.
class SdCell {
 public:
  explicit SdCell(SdParams p = {}) : p_(p) {}

  const SdParams& params() const { return p_; }

  void set_enable(bool ce) { ce_ = ce; }
  bool enabled() const { return ce_; }

  /// Pure query: would this waveform set the flag? Scans `w` for a wire
  /// whose driven value changed from `initial` to `expected` this cycle.
  /// Quiet wires are ND territory and never violate. The reference scan
  /// for CoupledBus::judge, as for NdCell::violates.
  bool violates(WaveformView w, util::Logic initial,
                util::Logic expected) const;

  /// Feed one verdict of violates() (scanned, or decided from a recipe by
  /// CoupledBus::judge): sets the flag when the cell is enabled and
  /// `violation` holds.
  void latch(bool violation) {
    if (ce_ && violation) flag_ = true;
  }

  /// Arrival instant: the last crossing of the receiver threshold, i.e.
  /// when the transition is finally committed. nullopt if the wire never
  /// crosses (stuck).
  std::optional<sim::Time> arrival_time(WaveformView w) const;

  bool flag() const { return flag_; }
  void clear() { flag_ = false; }

 private:
  SdParams p_;
  bool ce_ = false;
  bool flag_ = false;
};

/// The ND and SD verdicts on one waveform.
struct Verdicts {
  bool nd = false;
  bool sd = false;

  bool operator==(const Verdicts&) const = default;
};

/// Verdict memo of one store entry: the slot beside each entry of the
/// `CoupledBus` waveform store, living and dying with it (see
/// TransitionBatch). A verdict is a pure function of the wire's recipe
/// (which fixes its samples and its driven levels before and after the
/// transition) and the detector params, so verdicts judged under
/// `nd_params`/`sd_params` hold for every later observation of the entry
/// under params equal to those. `CoupledBus::judge` reads and fills it.
struct VerdictSlot {
  bool filled = false;
  NdParams nd_params;
  SdParams sd_params;
  Verdicts verdicts;
};

}  // namespace jsi::si

#endif  // JSI_SI_DETECTORS_HPP

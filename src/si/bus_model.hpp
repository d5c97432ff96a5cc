#ifndef JSI_SI_BUS_MODEL_HPP
#define JSI_SI_BUS_MODEL_HPP

#include <cstddef>
#include <vector>

#include "sim/time.hpp"

namespace jsi::si {

/// Interconnect model kinds selectable per bus. Each kind is implemented
/// behind the `InterconnectModel` interface (si/model.hpp) and registered
/// in `model_for()`; the scenario IR selects one via `bus.model`.
enum class ModelKind {
  RcFullSwing,  ///< full-swing CMOS driver, coupled-RC(+L) wire (default)
  LowSwing,     ///< repeaterless low-swing driver + level-converting receiver
};

/// Electrical parameters of an n-wire parallel interconnect bus.
///
/// Defaults model a long 180 nm-era global interconnect: ~350 Ω total drive
/// resistance and ~300 fF per-wire load gives a ~105 ps self time constant,
/// i.e. a ~73 ps nominal 50% delay.
struct BusParams {
  std::size_t n_wires = 8;
  double vdd = 1.8;            ///< supply [V]
  double r_driver = 250.0;     ///< driver output resistance [Ohm]
  double r_wire = 100.0;       ///< distributed wire resistance (lumped) [Ohm]
  double c_ground = 200e-15;   ///< wire-to-ground capacitance [F]
  double c_couple = 50e-15;    ///< adjacent-pair coupling capacitance [F]
  double l_wire = 0.0;         ///< wire inductance [H]; >0 enables ringing
  sim::Time sample_dt = sim::kPs;  ///< waveform sample step
  std::size_t samples = 2048;      ///< waveform window (2048 ps default)

  ModelKind model = ModelKind::RcFullSwing;  ///< interconnect model kind

  // Model-specific parameters (validated and read only by the selected
  // model; ignored by rc_full_swing):
  double swing_frac = 0.25;       ///< low_swing: bus swing as fraction of vdd
  double receiver_vt_frac = 0.2;  ///< low_swing: converter Vt as frac of vdd
};

/// Electrical state of a coupled bus: parameters plus injected defects,
/// laid out as struct-of-arrays for the solver.
///
/// `BusModel` is the passive half of the former monolithic `CoupledBus`:
/// it answers "what are the time constants of wire i right now" but never
/// evaluates a waveform — that is the `InterconnectModel` solver's job,
/// reading the contiguous per-wire arrays below. Every defect mutation
/// rebuilds the derived arrays.
///
/// SoA arrays (all indexed by wire, except `coupling_data` by pair):
///  * `coupling_data()[p]`   — effective coupling cap of pair (p, p+1) [F]
///  * `resistance_data()[i]` — total series resistance incl. defects [Ohm]
///  * `total_cap_data()[i]`  — ground + both couplings [F]
class BusModel {
 public:
  explicit BusModel(BusParams p);

  const BusParams& params() const { return p_; }
  std::size_t n() const { return p_.n_wires; }

  // ---- defect / process-variation injection -------------------------------

  /// Multiply the coupling capacitance of adjacent pair `pair` = (pair,
  /// pair+1) by `factor`. Cumulative.
  void scale_coupling(std::size_t pair, double factor);

  /// Add series resistance to `wire` (resistive open, weak driver).
  void add_series_resistance(std::size_t wire, double ohms);

  /// Composite crosstalk defect around `wire`: scales both adjacent
  /// couplings by `severity` and weakens the wire's driver proportionally.
  /// `severity` 1.0 is a no-op; ~5+ produces detectable glitches with the
  /// default detector thresholds.
  void inject_crosstalk_defect(std::size_t wire, double severity);

  /// Remove all injected defects.
  void clear_defects();

  // ---- electrical queries (bounds-checked scalar forms) -------------------

  /// Effective coupling capacitance of adjacent pair `pair` [F].
  double coupling(std::size_t pair) const;

  /// Total series resistance of `wire` including defects [Ohm].
  double resistance(std::size_t wire) const;

  /// Total capacitance seen by `wire` (ground + both couplings) [F].
  double total_cap(std::size_t wire) const;

  /// Self time constant R*C of `wire` with current defects [s].
  double self_tau(std::size_t wire) const;

  /// Defect-free 50% delay of `wire` — the designer's timing expectation
  /// from which the SD cell's skew-immune window is budgeted.
  sim::Time nominal_delay(std::size_t wire) const;

  // ---- SoA access for the solver (unchecked, contiguous) ------------------

  const double* coupling_data() const { return couple_.data(); }
  const double* resistance_data() const { return resistance_.data(); }
  const double* total_cap_data() const { return total_cap_.data(); }

 private:
  /// Recompute resistance_/total_cap_ from couple_/extra_r_. Expression
  /// order matches the historical per-call computations exactly so the
  /// refactor is bit-for-bit transparent.
  void rebuild_derived();

  BusParams p_;
  std::vector<double> couple_;      // per adjacent pair, with defects
  std::vector<double> extra_r_;     // per wire, defect series resistance
  std::vector<double> resistance_;  // derived: r_driver + r_wire + extra_r
  std::vector<double> total_cap_;   // derived: c_ground + adjacent couplings
};

}  // namespace jsi::si

#endif  // JSI_SI_BUS_MODEL_HPP

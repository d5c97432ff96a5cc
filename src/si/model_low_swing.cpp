// Repeaterless low-swing interconnect (Naveen & Sharma, arXiv:1511.06726):
// a reduced-swing static driver charges the wire only to
// v_swing = swing_frac * vdd, and a level-converting receiver with a fixed
// input threshold restores full-swing logic.
//
// Electrical mapping onto the shared RC machinery:
//  * Rails: a logic-1 wire settles at v_swing, not vdd; v0/vf and quiet
//    rails scale accordingly, and crosstalk glitches couple from
//    aggressors swinging v_swing.
//  * Rise asymmetry: the reduced-swing pull-up is a source-follower-style
//    stage whose drive weakens as the wire approaches v_swing, modeled as
//    a 1/swing_frac slowdown of the rising time constant; falls keep the
//    plain RC tau (full gate overdrive on the pull-down). The inductive
//    (RLC) branch of `render` is shared unchanged — it reads R and C from
//    the recipe, and low-swing global wires are modeled resistively here.
//  * Receiver: settled_logic decides at the converter threshold
//    receiver_vt_frac * vdd, and nominal_delay budgets the slower rise to
//    that threshold plus a fixed 30 ps converter delay.
//  * Detectors: ND/SD cells observe the reduced swing, so their supplies
//    (and thus every threshold fraction) scale to observed_swing.
//
// FP discipline: all floating-point math goes through the JSI_NOINLINE
// primitives (shared with rc_full_swing) plus the local noinline
// rising_tau helper, so every call site executes one copy of the math.

#include <stdexcept>

#include "si/model.hpp"
#include "si/solver_primitives.hpp"

namespace jsi::si {

namespace {

/// Fixed level-converter (receiver) delay [ps].
constexpr sim::Time kReceiverDelayPs = 30;

/// Switching time constant of wire i under the low-swing driver: the
/// Miller-weighted RC tau, slowed by 1/swing_frac on rising transitions
/// (weak reduced-swing pull-up), unchanged on falls.
JSI_NOINLINE double rising_tau(const BusModel& m, std::size_t i,
                               const util::BitVec& prev,
                               const util::BitVec& next) {
  const double tau = detail::switching_tau(m, i, prev, next);
  if (detail::delta_of(prev, next, i) > 0) return tau / m.params().swing_frac;
  return tau;
}

class LowSwingBusModel final : public InterconnectModel {
 public:
  ModelKind kind() const override { return ModelKind::LowSwing; }
  const char* name() const override { return "low_swing"; }

  void validate(const BusParams& p) const override {
    if (!(p.swing_frac > 0.0 && p.swing_frac <= 1.0)) {
      throw std::invalid_argument("low_swing swing_frac must be in (0, 1]");
    }
    if (!(p.receiver_vt_frac > 0.0 && p.receiver_vt_frac < 1.0)) {
      throw std::invalid_argument(
          "low_swing receiver_vt_frac must be in (0, 1)");
    }
    if (!(p.receiver_vt_frac < p.swing_frac)) {
      throw std::invalid_argument(
          "low_swing receiver_vt_frac must be below swing_frac");
    }
  }

  double high_rail(const BusParams& p) const override {
    return p.vdd * p.swing_frac;
  }

  double settled_threshold(const BusParams& p) const override {
    return p.vdd * p.receiver_vt_frac;
  }

  double observed_swing(const BusParams& p) const override {
    return p.vdd * p.swing_frac;
  }

  sim::Time nominal_delay(const BusParams& p, double tau) const override {
    const double tau_rise = tau / p.swing_frac;
    return static_cast<sim::Time>(tau_rise * detail::kLn2 /
                                      detail::kSecPerTick +
                                  0.5) +
           kReceiverDelayPs;
  }

  WireRecipe recipe(const BusModel& m, std::size_t i,
                    const util::BitVec& prev,
                    const util::BitVec& next) const override {
    return detail::wire_recipe(m, i, prev, next, high_rail(m.params()),
                               rising_tau);
  }

  bool same_extra_params(const BusParams& a,
                         const BusParams& b) const override {
    return a.swing_frac == b.swing_frac &&
           a.receiver_vt_frac == b.receiver_vt_frac;
  }

  const std::vector<std::string>& variable_params() const override {
    // receiver_vt_frac is a converter design constant, not a wire-level
    // process knob; swing_frac (bias-network variation) is the
    // model-specific axis the sweep may vary.
    static const std::vector<std::string> kNames = {
        "vdd",     "r_driver", "r_wire",    "c_ground",
        "c_couple", "l_wire",  "swing_frac"};
    return kNames;
  }

  // Reduced-swing static driver: bias/keeper network on the sending end;
  // level-converting receiver (differential pair + restoring inverter) on
  // the observing end. NAND-equivalents per wire, feeding Table 7-style
  // area accounting.
  double extra_sending_gates_per_wire() const override { return 2.0; }
  double extra_observing_gates_per_wire() const override { return 3.0; }
};

}  // namespace

namespace detail {
const InterconnectModel& low_swing_model() {
  static const LowSwingBusModel m;
  return m;
}
}  // namespace detail

}  // namespace jsi::si

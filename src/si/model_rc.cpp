// The full-swing coupled-RC(+L) model — the paper's original bus — behind
// the InterconnectModel seam: logic-1 wires sit at vdd and switch with the
// plain Miller-weighted RC time constant. Its waveforms come from the
// shared `render`; the parity gate for this file is that all shipped
// scenario artifacts are bit-identical to pre-seam output.

#include "si/model.hpp"
#include "si/solver_primitives.hpp"

namespace jsi::si {

namespace {

class RcFullSwingModel final : public InterconnectModel {
 public:
  ModelKind kind() const override { return ModelKind::RcFullSwing; }
  const char* name() const override { return "rc_full_swing"; }

  double high_rail(const BusParams& p) const override { return p.vdd; }

  double settled_threshold(const BusParams& p) const override {
    return p.vdd / 2.0;
  }

  double observed_swing(const BusParams& p) const override { return p.vdd; }

  sim::Time nominal_delay(const BusParams&, double tau) const override {
    return static_cast<sim::Time>(tau * detail::kLn2 / detail::kSecPerTick +
                                  0.5);
  }

  WireRecipe recipe(const BusModel& m, std::size_t i,
                    const util::BitVec& prev,
                    const util::BitVec& next) const override {
    return detail::wire_recipe(m, i, prev, next, high_rail(m.params()),
                               detail::switching_tau);
  }

  const std::vector<std::string>& variable_params() const override {
    static const std::vector<std::string> kNames = {
        "vdd", "r_driver", "r_wire", "c_ground", "c_couple", "l_wire"};
    return kNames;
  }
};

}  // namespace

namespace detail {
const InterconnectModel& rc_full_swing_model() {
  static const RcFullSwingModel m;
  return m;
}
}  // namespace detail

}  // namespace jsi::si

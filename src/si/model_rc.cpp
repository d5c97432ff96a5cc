// The full-swing coupled-RC(+L) model — the paper's original bus — moved
// verbatim behind the InterconnectModel seam. Every expression here is
// byte-for-byte the pre-seam per-wire solver; the parity gate for this
// file is that all shipped scenario artifacts are bit-identical to
// pre-refactor output.

#include <algorithm>

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

  void solve_wire(const BusModel& m, std::size_t i, const util::BitVec& prev,
                  const util::BitVec& next, DecayColumns& columns,
                  double* out) const override {
    const BusParams& p = m.params();
    const int di = detail::delta_of(prev, next, i);
    if (di != 0) {
      const double tau = detail::switching_tau(m, i, prev, next);
      const double v0 = prev[i] ? p.vdd : 0.0;
      const double vf = next[i] ? p.vdd : 0.0;
      detail::fill_switching(m, i, v0, vf, tau, columns, out);
      return;
    }
    // Quiet wire: rail baseline plus superposed neighbor glitches.
    const double rail = prev[i] ? p.vdd : 0.0;
    std::fill_n(out, p.samples, rail);
    const double ctot_v = m.total_cap_data()[i];
    const double tau_v = m.resistance_data()[i] * ctot_v;
    auto inject = [&](std::size_t j, double cc) {
      const int dj = detail::delta_of(prev, next, j);
      if (dj == 0) return;
      const double tau_a = detail::switching_tau(m, j, prev, next);
      detail::add_glitch(m, columns, out, p.vdd, cc, ctot_v, tau_v, tau_a,
                         dj);
    };
    const double* couple = m.coupling_data();
    if (i > 0) inject(i - 1, couple[i - 1]);
    if (i + 1 < p.n_wires) inject(i + 1, couple[i]);
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

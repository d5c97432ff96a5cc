#include "si/solver_primitives.hpp"

namespace jsi::si::detail {

JSI_NOINLINE double switching_tau(const BusModel& m, std::size_t i,
                                  const util::BitVec& prev,
                                  const util::BitVec& next) {
  const int di = delta_of(prev, next, i);
  const double* couple = m.coupling_data();
  double c = m.params().c_ground;
  auto factor = [&](std::size_t j) {
    const int dj = delta_of(prev, next, j);
    if (dj == 0) return 1.0;   // quiet neighbor: plain load
    if (dj == di) return 0.0;  // same-phase: coupling cap sees no swing
    return 2.0;                // opposite-phase: Miller-doubled
  };
  if (i > 0) c += couple[i - 1] * factor(i - 1);
  if (i + 1 < m.n()) c += couple[i] * factor(i + 1);
  return m.resistance_data()[i] * c;
}

WireRecipe wire_recipe(const BusModel& m, std::size_t i,
                       const util::BitVec& prev, const util::BitVec& next,
                       double high, TauRule tau_of) {
  const BusParams& p = m.params();
  WireRecipe r;
  r.prev_level = prev[i] ? 1 : 0;
  r.next_level = next[i] ? 1 : 0;
  r.v0 = prev[i] ? high : 0.0;
  r.vf = next[i] ? high : 0.0;
  if (r.switches()) {
    r.tau = tau_of(m, i, prev, next);
    if (p.l_wire > 0.0) {
      r.r = m.resistance_data()[i];
      r.c_tot = m.total_cap_data()[i];
      r.l_wire = p.l_wire;
    }
    return r;
  }
  // Quiet wire: its rail plus a glitch from each switching neighbor.
  std::size_t k = 0;
  const auto aggressor = [&](std::size_t j, double cc) {
    const int dj = delta_of(prev, next, j);
    if (dj != 0) r.aggressors[k++] = {cc, tau_of(m, j, prev, next), high, dj};
  };
  const double* couple = m.coupling_data();
  if (i > 0) aggressor(i - 1, couple[i - 1]);
  if (i + 1 < p.n_wires) aggressor(i + 1, couple[i]);
  if (k > 0) {
    r.c_tot = m.total_cap_data()[i];
    r.tau = m.resistance_data()[i] * r.c_tot;
  }
  return r;
}

}  // namespace jsi::si::detail

#include "si/solver_primitives.hpp"

#include <algorithm>
#include <cmath>

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

JSI_NOINLINE void decay_column(std::size_t samples, sim::Time sample_dt,
                               double tau, double* out) {
  const double dt = step_seconds(sample_dt);
  for (std::size_t s = 0; s < samples; ++s) out[s] = decay_at(dt, s, tau);
}

namespace {

/// Switching wire: single-pole exponential from v0 toward vf (reading
/// tau's decay column), or an underdamped series-RLC step response,
/// evaluated per sample, when l_wire > 0 and zeta < 1.
JSI_NOINLINE void fill_switching(const WireRecipe& w, DecayColumns& columns,
                                 double* out) {
  const std::size_t samples = columns.samples();
  const double dt = step_seconds(columns.sample_dt());
  if (w.l_wire > 0.0) {
    // Series RLC step response; underdamped when R < 2*sqrt(L/C).
    const Rlc m = rlc_of(w.r, w.c_tot, w.l_wire);
    if (m.zeta < 1.0) {
      for (std::size_t s = 0; s < samples; ++s) {
        out[s] = rlc_step(w.v0, w.vf, m, dt * static_cast<double>(s));
      }
      return;
    }
    // Overdamped RLC degenerates to (slightly slower) RC below.
  }
  const double* e = columns.column(w.tau);
  for (std::size_t s = 0; s < samples; ++s) {
    out[s] = rc_step(w.v0, w.vf, e[s]);
  }
}

/// Superpose one neighbor's crosstalk glitch onto a quiet wire.
/// First-order victim node driven through Cc by an exponential aggressor
/// (see Glitch); both exponentials are read from their decay columns.
/// `rail` is the aggressor's full swing (vdd for rc_full_swing, the
/// reduced swing for low_swing).
JSI_NOINLINE void add_glitch(DecayColumns& columns, double* w, double rail,
                             double cc, double ctot_v, double tau_v,
                             double tau_a, int direction) {
  const Glitch g = glitch_of(rail, cc, ctot_v, tau_v, tau_a, direction);
  const double dt = step_seconds(columns.sample_dt());
  const double* ev = columns.column(tau_v);
  const double* ea = g.equal ? nullptr : columns.column(tau_a);
  for (std::size_t s = 0; s < columns.samples(); ++s) {
    const double t = dt * static_cast<double>(s);
    w[s] = add_glitch_term(w[s], g,
                           glitch_shape(g, t, ev[s], g.equal ? 0.0 : ea[s]));
  }
}

}  // namespace

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

namespace jsi::si {

JSI_NOINLINE void render(const WireRecipe& r, DecayColumns& columns,
                         double* out) {
  if (r.switches()) {
    detail::fill_switching(r, columns, out);
    return;
  }
  std::fill_n(out, columns.samples(), r.v0);
  for (const RecipeAggressor& a : r.aggressors) {
    if (a.direction == 0) break;  // packed from the front
    detail::add_glitch(columns, out, a.swing, a.cc, r.c_tot, r.tau, a.tau,
                       static_cast<int>(a.direction));
  }
}

}  // namespace jsi::si

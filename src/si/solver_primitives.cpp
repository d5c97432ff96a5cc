#include "si/solver_primitives.hpp"

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
  const double dt = static_cast<double>(sample_dt) * kSecPerTick;
  for (std::size_t s = 0; s < samples; ++s) {
    const double t = dt * static_cast<double>(s);
    out[s] = std::exp(-t / tau);
  }
}

JSI_NOINLINE void fill_switching(const BusModel& m, std::size_t i, double v0,
                                 double vf, double tau, DecayColumns& columns,
                                 double* out) {
  const BusParams& p = m.params();
  const std::size_t samples = p.samples;
  const double dt = static_cast<double>(p.sample_dt) * kSecPerTick;
  if (p.l_wire > 0.0) {
    // Series RLC step response; underdamped when R < 2*sqrt(L/C).
    const double r = m.resistance_data()[i];
    const double c = m.total_cap_data()[i];
    const double w0 = 1.0 / std::sqrt(p.l_wire * c);
    const double zeta = r / 2.0 * std::sqrt(c / p.l_wire);
    if (zeta < 1.0) {
      const double wd = w0 * std::sqrt(1.0 - zeta * zeta);
      const double k = zeta / std::sqrt(1.0 - zeta * zeta);
      for (std::size_t s = 0; s < samples; ++s) {
        const double t = dt * static_cast<double>(s);
        const double e = std::exp(-zeta * w0 * t);
        out[s] =
            vf + (v0 - vf) * e * (std::cos(wd * t) + k * std::sin(wd * t));
      }
      return;
    }
    // Overdamped RLC degenerates to (slightly slower) RC below.
  }
  const double* e = columns.column(tau);
  for (std::size_t s = 0; s < samples; ++s) {
    out[s] = vf + (v0 - vf) * e[s];
  }
}

JSI_NOINLINE void add_glitch(const BusModel& m, DecayColumns& columns,
                             double* w, double rail, double cc, double ctot_v,
                             double tau_v, double tau_a, int direction) {
  const BusParams& p = m.params();
  const double amp = direction * rail * cc / ctot_v;
  const double dt = static_cast<double>(p.sample_dt) * kSecPerTick;
  const bool equal = std::abs(tau_v - tau_a) < 1e-15;
  const double scale = equal ? 0.0 : tau_v / (tau_v - tau_a);
  const double* ev = columns.column(tau_v);
  const double* ea = equal ? nullptr : columns.column(tau_a);
  for (std::size_t s = 0; s < p.samples; ++s) {
    double g;
    if (equal) {
      const double t = dt * static_cast<double>(s);
      g = (t / tau_v) * ev[s];
    } else {
      g = scale * (ev[s] - ea[s]);
    }
    w[s] += amp * g;
  }
}

}  // namespace jsi::si::detail

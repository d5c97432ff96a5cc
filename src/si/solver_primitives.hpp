#ifndef JSI_SI_SOLVER_PRIMITIVES_HPP
#define JSI_SI_SOLVER_PRIMITIVES_HPP

#include <cmath>
#include <cstddef>

#include "si/bus_model.hpp"
#include "si/recipe.hpp"
#include "sim/time.hpp"
#include "util/bitvec.hpp"

// Under -march=native the compiler may contract a*b+c into FMA
// differently per inline context. Keeping the solver primitives the
// models share out-of-line in one translation unit means every caller
// executes the same machine code, so a waveform's bits never depend on
// where the primitive was inlined.
#if defined(__GNUC__) || defined(__clang__)
#define JSI_NOINLINE __attribute__((noinline))
#else
#define JSI_NOINLINE
#endif

namespace jsi::si::detail {

/// Seconds per sim::Time tick (1 ps).
constexpr double kSecPerTick = 1e-12;
constexpr double kLn2 = 0.6931471805599453;

/// Wire i's transition direction: next - prev in {-1, 0, +1}. Integer
/// math — safe to inline, no FP contraction risk.
inline int delta_of(const util::BitVec& prev, const util::BitVec& next,
                    std::size_t i) {
  const int a = prev[i] ? 1 : 0;
  const int b = next[i] ? 1 : 0;
  return b - a;
}

/// Switching time constant of wire i: R_i times the Miller-weighted
/// coupling capacitance (factor 0 toward a same-phase neighbor, 1 toward
/// a quiet one, 2 toward an opposite-phase one).
JSI_NOINLINE double switching_tau(const BusModel& m, std::size_t i,
                                  const util::BitVec& prev,
                                  const util::BitVec& next);

// ---- per-sample math --------------------------------------------------------
//
// Every expression a waveform's sample is made of, one inline function
// each. WireProbe::sample (si/probe.hpp) evaluates a sample from these,
// and `render` calls WireProbe::sample for every sample, so a probed
// sample is the rendered one bit for bit.

/// Seconds between two samples of a `sample_dt` grid.
inline double step_seconds(sim::Time sample_dt) {
  return static_cast<double>(sample_dt) * kSecPerTick;
}

/// exp(-t / tau) at sample s of a grid `dt` seconds apart.
inline double decay_at(double dt, std::size_t s, double tau) {
  const double t = dt * static_cast<double>(s);
  return std::exp(-t / tau);
}

/// The RC step from v0 toward vf at decay value e = exp(-t / tau).
inline double rc_step(double v0, double vf, double e) {
  return vf + (v0 - vf) * e;
}

/// A series-RLC wire's step response constants.
struct Rlc {
  double w0 = 0.0;    ///< undamped angular frequency [rad/s]
  double zeta = 0.0;  ///< damping ratio; the response rings when < 1
  double wd = 0.0;    ///< damped angular frequency (zeta < 1 only)
  double k = 0.0;     ///< zeta / sqrt(1 - zeta^2) (zeta < 1 only)
};

inline Rlc rlc_of(double r, double c, double l) {
  Rlc m;
  m.w0 = 1.0 / std::sqrt(l * c);
  m.zeta = r / 2.0 * std::sqrt(c / l);
  if (m.zeta < 1.0) {
    m.wd = m.w0 * std::sqrt(1.0 - m.zeta * m.zeta);
    m.k = m.zeta / std::sqrt(1.0 - m.zeta * m.zeta);
  }
  return m;
}

/// The underdamped RLC step from v0 toward vf at time t [s].
inline double rlc_step(double v0, double vf, const Rlc& m, double t) {
  const double e = std::exp(-m.zeta * m.w0 * t);
  return vf + (v0 - vf) * e * (std::cos(m.wd * t) + m.k * std::sin(m.wd * t));
}

/// One switching neighbour's crosstalk glitch on a quiet wire:
///   v(t) = amp * tau_v/(tau_v - tau_a) * (exp(-t/tau_v) - exp(-t/tau_a))
/// with the amp * (t/tau_v) * exp(-t/tau_v) limit when the time
/// constants coincide.
struct Glitch {
  double amp = 0.0;    ///< direction * rail * Cc / Ctot_v [V]
  double tau_v = 0.0;  ///< the quiet wire's own tau [s]
  double tau_a = 0.0;  ///< the aggressor's switching tau [s]
  bool equal = false;  ///< the time constants coincide (within 1e-15 s)
  double scale = 0.0;  ///< tau_v / (tau_v - tau_a); 0 when `equal`
};

inline Glitch glitch_of(double rail, double cc, double ctot_v, double tau_v,
                        double tau_a, int direction) {
  Glitch g;
  g.amp = direction * rail * cc / ctot_v;
  g.tau_v = tau_v;
  g.tau_a = tau_a;
  g.equal = std::abs(tau_v - tau_a) < 1e-15;
  g.scale = g.equal ? 0.0 : tau_v / (tau_v - tau_a);
  return g;
}

/// The glitch's shape (its value over amp) at time t, from the decays
/// ev = exp(-t/tau_v) and ea = exp(-t/tau_a) (ea unread when `equal`).
inline double glitch_shape(const Glitch& g, double t, double ev, double ea) {
  return g.equal ? (t / g.tau_v) * ev : g.scale * (ev - ea);
}

/// One glitch accumulated onto a quiet wire's sample: the rail first,
/// then each switching neighbour's glitch, left before right.
inline double add_glitch_term(double acc, const Glitch& g, double shape) {
  return acc + g.amp * shape;
}

/// The per-wire time-constant rule a model builds its recipes with:
/// `switching_tau` or a model's own variant of it.
using TauRule = double (*)(const BusModel& m, std::size_t i,
                           const util::BitVec& prev,
                           const util::BitVec& next);

/// Wire i's recipe for prev -> next under a model whose logic-1 wires
/// sit at `high` and switch with `tau_of`: both models build theirs
/// here, so the quiet wire's aggressor walk exists once.
WireRecipe wire_recipe(const BusModel& m, std::size_t i,
                       const util::BitVec& prev, const util::BitVec& next,
                       double high, TauRule tau_of);

}  // namespace jsi::si::detail

#endif  // JSI_SI_SOLVER_PRIMITIVES_HPP

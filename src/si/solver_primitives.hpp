#ifndef JSI_SI_SOLVER_PRIMITIVES_HPP
#define JSI_SI_SOLVER_PRIMITIVES_HPP

#include <cstddef>

#include "si/bus_model.hpp"
#include "si/decay_columns.hpp"
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

/// Decay column of `tau`: out[s] = exp(-t / tau) with t = dt * s, for
/// s < samples — the exponential the RC branches below read through a
/// DecayColumns table, computed here once per distinct tau.
JSI_NOINLINE void decay_column(std::size_t samples, sim::Time sample_dt,
                               double tau, double* out);

/// Switching wire: single-pole exponential from v0 toward vf (reading
/// tau's decay column), or an underdamped series-RLC step response,
/// evaluated per sample, when l_wire > 0 and zeta < 1.
JSI_NOINLINE void fill_switching(const BusModel& m, std::size_t i, double v0,
                                 double vf, double tau, DecayColumns& columns,
                                 double* out);

/// Superpose one neighbor's crosstalk glitch onto a quiet wire.
/// First-order victim node driven through Cc by an exponential aggressor:
///   v(t) = dir * rail * (Cc/Ctot) * tau_v/(tau_v - tau_a)
///              * (exp(-t/tau_v) - exp(-t/tau_a))
/// with the t*exp(-t/tau) limit when the time constants coincide; both
/// exponentials are read from their decay columns. `rail` is the
/// aggressor's full swing (vdd for rc_full_swing, the reduced swing for
/// low_swing).
JSI_NOINLINE void add_glitch(const BusModel& m, DecayColumns& columns,
                             double* w, double rail, double cc, double ctot_v,
                             double tau_v, double tau_a, int direction);

}  // namespace jsi::si::detail

#endif  // JSI_SI_SOLVER_PRIMITIVES_HPP

#ifndef JSI_SI_SOLVER_PRIMITIVES_HPP
#define JSI_SI_SOLVER_PRIMITIVES_HPP

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

/// Decay column of `tau`: out[s] = exp(-t / tau) with t = dt * s, for
/// s < samples — the exponential `render` reads through a DecayColumns
/// table, computed here once per distinct tau.
JSI_NOINLINE void decay_column(std::size_t samples, sim::Time sample_dt,
                               double tau, double* out);

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

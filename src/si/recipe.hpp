#ifndef JSI_SI_RECIPE_HPP
#define JSI_SI_RECIPE_HPP

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace jsi::si {

/// One switching neighbour of a quiet wire, as its crosstalk glitch sees
/// it. An unused aggressor is all zeros (direction 0).
struct RecipeAggressor {
  double cc = 0.0;             ///< coupling capacitance of the pair [F]
  double tau = 0.0;            ///< the aggressor's switching tau [s]
  double swing = 0.0;          ///< the aggressor's full swing [V]
  std::int64_t direction = 0;  ///< +1 rising, -1 falling, 0 unused
};

/// Every input of one wire's receiving-end waveform for one bus
/// transition, beyond the bus's `samples` and `sample_dt`: `render()`
/// (si/probe.hpp) reads nothing else, so equal recipes give equal
/// samples, whichever wire, bus state or defect produced them. Fields a
/// wire's kind does not read stay zero, so they never split equal
/// waveforms across recipes.
///
///  * Switching wire (`prev_level != next_level`): v0 -> vf with time
///    constant `tau`; with `l_wire > 0` also `r` and `c_tot`, the series
///    RLC the underdamped response reads.
///  * Quiet wire: `v0 == vf`, its rail; with a switching neighbour also
///    its own `c_tot` and `tau` (tau_v) and each switching neighbour, left
///    then right, packed from `aggressors[0]`. With none it carries its
///    level alone.
///
/// The driven levels are part of the recipe, so a waveform's ND/SD
/// verdicts (a function of samples, levels and detector params) are a
/// function of the recipe too. Every field is 8 bytes wide: the struct
/// has no padding, and its bytes are exactly its fields' bit patterns,
/// which is what `RecipeHash` hashes and `SameRecipe` compares.
struct WireRecipe {
  std::uint64_t prev_level = 0;  ///< driven logic level before (0 or 1)
  std::uint64_t next_level = 0;  ///< driven logic level after
  double v0 = 0.0;               ///< voltage before [V]
  double vf = 0.0;               ///< voltage it is driven to [V]
  double tau = 0.0;              ///< switching tau, or a quiet wire's tau_v [s]
  double c_tot = 0.0;            ///< the wire's total capacitance [F]
  double r = 0.0;                ///< series resistance (RLC only) [Ohm]
  double l_wire = 0.0;           ///< wire inductance (RLC only) [H]
  RecipeAggressor aggressors[2];

  bool switches() const { return prev_level != next_level; }
};

static_assert(sizeof(RecipeAggressor) == 4 * sizeof(std::uint64_t),
              "RecipeAggressor must have no padding");
static_assert(sizeof(WireRecipe) ==
                  8 * sizeof(std::uint64_t) + 2 * sizeof(RecipeAggressor),
              "WireRecipe must have no padding");

/// A recipe as the words of its bit pattern.
using RecipeBits = std::array<std::uint64_t, sizeof(WireRecipe) / 8>;

inline RecipeBits recipe_bits(const WireRecipe& r) {
  return std::bit_cast<RecipeBits>(r);
}

/// Bitwise equality: +0.0 and -0.0 differ, a NaN equals its own bits.
struct SameRecipe {
  bool operator()(const WireRecipe& a, const WireRecipe& b) const {
    return std::memcmp(&a, &b, sizeof(WireRecipe)) == 0;
  }
};

/// Hash over a recipe's bit pattern: every word is mixed into one of
/// four independent lanes (so the multiplies overlap), then the lanes
/// are folded and finalized. Each step is a bijection of the word it
/// takes in, so recipes that differ in one word never share a hash.
struct RecipeHash {
  std::size_t operator()(const WireRecipe& r) const {
    constexpr std::uint64_t kMul = 0xBF58476D1CE4E5B9ull;
    const RecipeBits w = recipe_bits(r);
    std::uint64_t lane[4] = {0x9E3779B97F4A7C15ull, 0x94D049BB133111EBull,
                             0xD6E8FEB86659FD93ull, 0xA0761D6478BD642Full};
    for (std::size_t k = 0; k < w.size(); ++k) {
      lane[k % 4] = (lane[k % 4] ^ w[k]) * kMul;
    }
    std::uint64_t h = lane[0] ^ std::rotl(lane[1], 16) ^
                      std::rotl(lane[2], 32) ^ std::rotl(lane[3], 48);
    h ^= h >> 31;
    h *= kMul;
    h ^= h >> 29;
    return static_cast<std::size_t>(h);
  }
};

}  // namespace jsi::si

#endif  // JSI_SI_RECIPE_HPP

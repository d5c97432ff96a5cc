#ifndef JSI_E2E_WORKLOADS_HPP
#define JSI_E2E_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

// Seeded workload generators. Each returns canonical scenario text (the
// in-tree serializer's output): the program under test receives nothing
// but this text, exactly as `jsi run` would read it from a file. The seed
// moves defect placements, process-variation draws and job order; the
// amount of work per run stays the same, so figures from different seeds
// are comparable.

namespace jsi::e2e {

/// Aggregated Monte-Carlo sweep, rc_full_swing, n=8, `shards` workers.
std::string mc_sweep_text(std::uint64_t seed, bool tiny, std::size_t shards);

/// Per-unit transcripts of five session kinds on one clean-prototype
/// n=64 SoC with seeded random crosstalk, 1 shard.
std::string wide_bus_text(std::uint64_t seed, bool tiny);

/// The mc_sweep shape under the low_swing model with swing variation,
/// 1 shard.
std::string low_swing_text(std::uint64_t seed, bool tiny);

/// The serve_closed job catalog: small soc / multibus / board scenarios
/// of mixed session kinds and methods.
std::vector<std::string> serve_catalog(std::uint64_t seed, bool tiny);

}  // namespace jsi::e2e

#endif  // JSI_E2E_WORKLOADS_HPP

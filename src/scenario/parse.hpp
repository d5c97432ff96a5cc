#ifndef JSI_SCENARIO_PARSE_HPP
#define JSI_SCENARIO_PARSE_HPP

#include <cstdint>
#include <string>
#include <string_view>

#include "scenario/spec.hpp"

namespace jsi::scenario {

/// Parse and validate a scenario document. Strict on both axes: the text
/// must be valid JSON (errors are reported as "json: <reason>"), and the
/// document must match the schema exactly — unknown keys, missing
/// required keys, kind/topology mismatches and out-of-range indices all
/// throw SpecError with the offending path ("sessions[1].guard") and a
/// reason. A returned spec is fully validated: build_campaign() cannot
/// fail on it.
ScenarioSpec parse_scenario(std::string_view text);

/// Throw SpecError "campaign.shards: must be <= 256" for a shard count
/// past the parse cap. The one gate for campaign.shards and its overrides
/// (`jsi run|submit --shards`, serve's submit "shards"): the runner starts
/// one std::thread per shard, and a pool that fails to start part-way
/// ends the process (and with it a daemon serving other clients).
void check_shards(std::uint64_t shards);

/// Read `path` and parse_scenario() its contents. File-system problems
/// throw SpecError with path "file".
ScenarioSpec load_scenario(const std::string& path);

}  // namespace jsi::scenario

#endif  // JSI_SCENARIO_PARSE_HPP

#ifndef JSI_OBS_PROFILE_HPP
#define JSI_OBS_PROFILE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "obs/telemetry.hpp"

namespace jsi::obs {

/// One campaign unit's deterministic cost summary — the slice of a
/// core::UnitOutcome the profile report needs. Kept as a neutral struct
/// so obs stays below core in the layering (core adapts its results into
/// this; see scenario::render_profile).
struct ProfileUnit {
  std::string name;
  std::uint64_t total_tcks = 0;
  std::uint64_t generation_tcks = 0;
  std::uint64_t observation_tcks = 0;
  bool violation = false;
  bool failed = false;
};

/// Campaign-wide books for the profile headline: the campaign result's
/// totals, which aggregate mode keeps even though it folds the per-unit
/// outcomes away.
struct ProfileTotals {
  std::uint64_t units = 0;
  std::uint64_t violations = 0;
  std::uint64_t failures = 0;
  std::uint64_t total_tcks = 0;
  std::uint64_t generation_tcks = 0;
  std::uint64_t observation_tcks = 0;
};

struct ProfileOptions {
  std::size_t top_k = 5;  ///< slowest-unit list length
  /// TCK period used to convert TCK budgets into estimated wall time —
  /// the same knob the tracer stamps t_ps with.
  std::uint64_t tck_period_ps = 10'000;
};

/// Render the post-run profile of a merged campaign transcript: the
/// headline counts and TCK/wall-time split by phase (generation vs
/// observation) from `totals`, TCKs by TAP state, sessions by kind,
/// per-TapOp latency summaries (count / mean / p50 / p95 from the
/// op.tcks histogram), the top-k slowest of the retained `units` by TCK
/// count (none in aggregate mode), the bus waveform-store hit rate, and
/// — when a final telemetry snapshot is supplied — measured per-worker
/// busy/idle utilization. Deterministic for everything derived from
/// `totals`, `units` and `merged`; only the telemetry block carries
/// wall-clock numbers.
std::string profile_report(const ProfileTotals& totals,
                           const std::vector<ProfileUnit>& units,
                           const Registry& merged,
                           const Snapshot* telemetry = nullptr,
                           const ProfileOptions& opt = {});

}  // namespace jsi::obs

#endif  // JSI_OBS_PROFILE_HPP

#ifndef JSI_SCENARIO_RUN_HPP
#define JSI_SCENARIO_RUN_HPP

#include <atomic>
#include <iosfwd>
#include <optional>
#include <string>

#include "core/campaign.hpp"
#include "scenario/spec.hpp"

namespace jsi::scenario {

struct RunOptions {
  /// Override campaign.shards (the CLI's --shards flag).
  std::optional<std::size_t> shards;
  /// Override the spec's telemetry section (the CLI's --telemetry /
  /// --telemetry-interval flags).
  std::optional<TelemetrySpec> telemetry;
  /// Live single-line terminal progress with ETA (the CLI's --progress).
  bool progress = false;
  /// Render the post-run profile report into ScenarioOutcome::profile_text.
  bool profile = false;

  /// Sidecar checkpoint file (the CLI's --checkpoint): every completed
  /// chunk is appended as one JSONL record, so a killed run loses at
  /// most the chunks in flight.
  std::string checkpoint_path;
  /// Resume from checkpoint_path (--resume): completed chunks are folded
  /// from the file instead of re-run; the final artifacts are
  /// byte-identical to an uninterrupted run.
  bool resume = false;
  /// Stop after ~N freshly run chunks (--max-chunks); 0 = to completion.
  /// An incremental step towards a checkpointed campaign.
  std::size_t max_chunks = 0;
  /// Fork this many worker processes over disjoint chunk-aligned index
  /// ranges (--workers; 0/1 = in-process). Each worker writes its chunk
  /// records to its own checkpoint part file; the parent concatenates
  /// them and folds the merged checkpoint in chunk order, so the
  /// artifacts are byte-identical to any other worker/shard count.
  std::size_t workers = 0;

  /// Cooperative cancellation flag (not owned; may be nullptr): once it
  /// reads true, workers stop claiming chunks and run_scenario returns
  /// an incomplete result with result.cancelled set. The campaign
  /// service's cancel verb flips this. Incompatible with workers > 1.
  const std::atomic<bool>* cancel = nullptr;
  /// Extra in-memory telemetry heartbeat sink (not owned; may be
  /// nullptr); naming one turns telemetry on. The campaign service
  /// streams per-job heartbeats to subscribers through this.
  std::ostream* telemetry_sink = nullptr;
};

/// Everything one scenario execution produces, already rendered into the
/// canonical artifact texts. The texts are pure functions of the spec —
/// byte-identical for any shard count and for the CLI vs the programmatic
/// path (the CLI is nothing but load_scenario + run_scenario +
/// write_artifacts).
struct ScenarioOutcome {
  core::CampaignResult result;
  std::string report_text;   ///< CampaignResult::to_text()
  std::string metrics_json;  ///< merged Registry as one JSON object + '\n'
  /// Per-unit event streams as JSONL: a {"kind":"UnitBegin",...} header
  /// per unit followed by its stamped events. Empty unless the spec sets
  /// campaign.keep_events.
  std::string events_jsonl;
  /// Post-run profile report (obs::profile_report). Empty unless
  /// RunOptions::profile is set. Informational — unlike the three
  /// artifacts above it may fold in measured telemetry (worker
  /// utilization), so it is not part of the determinism contract.
  std::string profile_text;
  /// Sweep campaigns only: the yield curve — per grid point, units run /
  /// violations / failures / yield fraction, plus a "truth" object
  /// (bad / escapes / overkill / escape_rate / overkill_rate /
  /// wire_sensitivity) when the sweep sets spec_limits — folded from the
  /// merged metrics. Part of the determinism contract (a pure function of the
  /// merged registry). Empty for non-sweep scenarios and for incomplete
  /// (range- or max_chunks-restricted) runs.
  std::string yield_json;
};

/// Lower the spec (build_campaign), run it, and render the artifacts.
ScenarioOutcome run_scenario(const ScenarioSpec& spec,
                             const RunOptions& opt = {});

/// The events.jsonl text for a result captured with keep_events.
std::string render_events_jsonl(const core::CampaignResult& result);

/// The post-run profile report for a finished campaign: phase breakdown,
/// session-kind mix, top-k slowest units, and — when the result carries a
/// telemetry snapshot — measured per-worker utilization.
std::string render_profile(const ScenarioSpec& spec,
                           const core::CampaignResult& result);

/// The yield.json text for a sweep result: re-derives the grid from the
/// spec and reads the sweep.* counters out of the merged registry, so it
/// needs no per-unit state — O(1) in population size, byte-identical for
/// any shard/worker count. Returns "" when the spec has no sweep.
std::string render_yield_json(const ScenarioSpec& spec,
                              const core::CampaignResult& result);

/// Write report.txt, metrics.json and (when non-empty) events.jsonl,
/// profile.txt and yield.json into `dir`, creating it if needed. Throws
/// std::runtime_error on I/O errors.
void write_artifacts(const std::string& dir, const ScenarioOutcome& outcome);

}  // namespace jsi::scenario

#endif  // JSI_SCENARIO_RUN_HPP

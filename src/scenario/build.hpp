#ifndef JSI_SCENARIO_BUILD_HPP
#define JSI_SCENARIO_BUILD_HPP

#include <atomic>
#include <iosfwd>
#include <memory>
#include <optional>
#include <vector>

#include "core/campaign.hpp"
#include "core/soc.hpp"
#include "ict/board.hpp"
#include "ict/extest_session.hpp"
#include "scenario/spec.hpp"
#include "si/bus.hpp"
#include "util/prng.hpp"

namespace jsi::scenario {

// ---- thin config wrappers ---------------------------------------------------
//
// Consumers that want a single device rather than a whole campaign
// (examples, benches) lower the relevant spec pieces through these.
// Each throws SpecError when the spec's topology kind does not match.

/// SocConfig for a Soc- or MultiBusSoc-topology spec: one bus of
/// `n_wires`, or `n_buses` buses of `wires_per_bus` (enhanced defaults
/// to true; the session kind decides it at campaign-lowering time).
core::SocConfig soc_config(const ScenarioSpec& spec);

/// BoardNets for a Board-topology spec with the scenario-level faults
/// already injected.
ict::BoardNets board_nets(const ScenarioSpec& spec);

/// The core enum for a session's `method` field.
core::ObservationMethod observation_method(const SessionSpec& s);

/// The ict enum for a session's `algorithm` field.
ict::Algorithm extest_algorithm(const SessionSpec& s);

/// The scenario-level defect list with every RandomCrosstalk entry
/// resolved into concrete Crosstalk placements using Prng(campaign.seed)
/// — exactly the list build_campaign() applies to every unit.
std::vector<DefectSpec> resolved_defects(const ScenarioSpec& spec);

/// Resolve one defect list with a caller-supplied PRNG, consumed in spec
/// order so the same seed always resolves the same placements. This is
/// the primitive behind resolved_defects(); the sweep unit source also
/// resolves per-die defect lists with each die's own PRNG split through
/// it.
std::vector<DefectSpec> resolve_defects(const std::vector<DefectSpec>& in,
                                        const TopologySpec& topo,
                                        util::Prng& rng);

/// Apply one resolved electrical defect to a bus (RandomCrosstalk must
/// be resolved first; board kinds are rejected with std::logic_error).
void apply_defect(si::CoupledBus& bus, const DefectSpec& d);

/// Apply one board fault to a net set (electrical kinds rejected).
void apply_board_fault(ict::BoardNets& board, const DefectSpec& d);

// ---- campaign lowering ------------------------------------------------------

struct BuildOptions {
  /// Override campaign.shards (the CLI's --shards flag).
  std::optional<std::size_t> shards;
  /// Override the spec's telemetry section (the CLI's --telemetry /
  /// --telemetry-interval flags).
  std::optional<TelemetrySpec> telemetry;
  /// Render a live single-line terminal progress bar (the CLI's
  /// --progress flag); implies a running sampler even with no JSONL sink.
  bool progress = false;

  // Sweep-scale execution control, forwarded into core::CampaignConfig
  // (see the field docs there). The campaign fingerprint stamped into
  // the checkpoint header is derived from the canonically serialized
  // spec, so a checkpoint can never silently resume a different sweep.

  /// Sidecar checkpoint file ("" = none) — the CLI's --checkpoint flag.
  std::string checkpoint_path;
  /// Load checkpoint_path and skip its completed chunks (--resume).
  bool resume = false;
  /// Stop after ~N freshly run chunks; 0 = run to completion.
  std::size_t max_chunks = 0;
  /// Restrict to work-unit indices [range_begin, range_end); 0/0 = all.
  /// Must be chunk-aligned (the multi-process worker split is).
  std::size_t range_begin = 0;
  std::size_t range_end = 0;

  /// Cooperative cancellation flag (not owned; may be nullptr),
  /// forwarded to core::CampaignConfig::cancel. The campaign service
  /// points every job's runner at the job's cancel flag.
  const std::atomic<bool>* cancel = nullptr;
  /// Extra in-memory telemetry heartbeat sink (not owned; may be
  /// nullptr), forwarded to obs::TelemetryConfig::sink in addition to
  /// any JSONL file path — the campaign service streams a job's
  /// heartbeats to subscribed clients through this.
  std::ostream* telemetry_sink = nullptr;
};

/// A lowered scenario: the campaign runner plus the prototype bus it
/// clones per unit. Movable; the runner's prototype pointer stays valid
/// because the bus lives behind a unique_ptr.
class ScenarioCampaign {
 public:
  core::CampaignRunner& runner() { return runner_; }
  const core::CampaignRunner& runner() const { return runner_; }

  /// The warmed prototype (nullptr for board topologies or when
  /// campaign.warm_prototype is false).
  const si::CoupledBus* prototype() const { return proto_.get(); }

  core::CampaignResult run() { return runner_.run(); }

 private:
  friend ScenarioCampaign build_campaign(const ScenarioSpec&,
                                         const BuildOptions&);
  std::unique_ptr<si::CoupledBus> proto_;
  /// The lazy unit source of a sweep campaign (null otherwise). Owned
  /// here for the same lifetime reason as proto_: the runner holds a raw
  /// pointer that must stay valid across moves of this object.
  std::unique_ptr<core::UnitSource> source_;
  core::CampaignRunner runner_;
};

/// Lower a validated spec into an executable campaign: one unit per
/// session (scenario-level defects plus the session's own, random
/// placements resolved via the campaign seed), a warmed prototype bus
/// shared by all matching-width units, and the spec's execution and
/// observability settings. Deterministic: building the same spec twice
/// yields campaigns whose runs are byte-identical.
ScenarioCampaign build_campaign(const ScenarioSpec& spec,
                                const BuildOptions& opt = {});

}  // namespace jsi::scenario

#endif  // JSI_SCENARIO_BUILD_HPP

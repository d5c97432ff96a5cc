#ifndef JSI_SCENARIO_SPEC_HPP
#define JSI_SCENARIO_SPEC_HPP

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "si/bus.hpp"

namespace jsi::scenario {

/// Validation failure for a scenario document. Every error names the
/// offending location as a dotted path into the JSON document
/// ("sessions[2].method") plus a human reason; what() is always
/// "<path>: <reason>", and tests pin these strings exactly.
class SpecError : public std::runtime_error {
 public:
  SpecError(std::string path, std::string reason)
      : std::runtime_error(path + ": " + reason),
        path_(std::move(path)),
        reason_(std::move(reason)) {}

  const std::string& path() const { return path_; }
  const std::string& reason() const { return reason_; }

 private:
  std::string path_;
  std::string reason_;
};

/// Device-under-test families a scenario can describe. One scenario
/// models exactly one topology; every session in it runs against a fresh
/// instance of that topology.
enum class TopologyKind {
  Soc,         ///< two-core SoC, one n-wire interconnect bus (paper Fig 11)
  MultiBusSoc, ///< B equal-width buses sharing one TAP
  Board,       ///< two chips over PCB traces (classic EXTEST)
};

const char* topology_kind_name(TopologyKind k);

/// The device under test. Which fields are meaningful depends on `kind`;
/// the parser rejects keys that do not belong to the declared kind, and
/// the serializer emits exactly the kind-relevant set.
struct TopologySpec {
  TopologyKind kind = TopologyKind::Soc;

  // kind == Soc
  std::size_t n_wires = 8;

  // kind == MultiBusSoc
  std::size_t n_buses = 2;
  std::size_t wires_per_bus = 8;

  // Soc and MultiBusSoc
  std::size_t m_extra_cells = 1;
  std::size_t ir_width = 4;
  std::uint32_t idcode = 0;  ///< parse fills the kind default when absent
  si::BusParams bus{};       ///< width is overridden by the topology width

  // kind == Board
  std::size_t n_nets = 8;
  bool float_value = true;
};

/// Injectable defect / fault kinds. The electrical kinds target the
/// coupled-bus model (Soc / MultiBusSoc topologies); the static kinds
/// target board nets (Board topology). RandomCrosstalk is resolved into
/// concrete Crosstalk entries at build time using the campaign seed, so
/// a seeded scenario is fully deterministic end to end.
enum class DefectKind {
  Crosstalk,         ///< CoupledBus::inject_crosstalk_defect(wire, severity)
  Coupling,          ///< CoupledBus::scale_coupling(pair, factor)
  SeriesResistance,  ///< CoupledBus::add_series_resistance(wire, ohms)
  RandomCrosstalk,   ///< `count` seeded-random Crosstalk placements
  Stuck,             ///< BoardNets::inject_stuck(net, value)
  Open,              ///< BoardNets::inject_open(net)
  Short,             ///< BoardNets::inject_short(nets, wired_and)
};

const char* defect_kind_name(DefectKind k);

struct DefectSpec {
  DefectKind kind = DefectKind::Crosstalk;

  // electrical kinds; `bus` is required (and only valid) on a
  // MultiBusSoc topology
  std::size_t bus = 0;
  std::size_t wire = 0;       // Crosstalk / SeriesResistance
  std::size_t pair = 0;       // Coupling
  double severity = 1.0;      // Crosstalk / RandomCrosstalk
  double factor = 1.0;        // Coupling
  double ohms = 0.0;          // SeriesResistance
  std::size_t count = 1;      // RandomCrosstalk

  // board kinds
  std::size_t net = 0;            // Stuck / Open
  bool value = false;             // Stuck
  std::vector<std::size_t> nets;  // Short (>= 2 members)
  bool wired_and = true;          // Short
};

/// Session flavours — the six ways this repo can drive a test. Each
/// lowers to one core::CampaignUnit.
enum class SessionKind {
  Enhanced,      ///< SiTestSession::run (PGBSC/OBSC, paper Fig 12)
  Conventional,  ///< ConventionalSession::run (Table 5 baseline)
  Parallel,      ///< SiTestSession::run_parallel (multi-victim)
  MultiBus,      ///< MultiBusSession::run (all buses at once)
  Bist,          ///< SiBistController::run (autonomous microcode)
  Extest,        ///< ict::ExtestInterconnectSession::run (board nets)
};

const char* session_kind_name(SessionKind k);

/// Board-level pattern algorithm (Extest sessions only).
enum class ExtestAlgorithm {
  WalkingOnes,
  CountingSequence,
  TrueComplementCounting,
};

const char* extest_algorithm_name(ExtestAlgorithm a);

struct SessionSpec {
  SessionKind kind = SessionKind::Enhanced;
  std::string name;      ///< unit name; empty = "<kind>_<index>" at build
  int method = 1;        ///< observation method 1..3 (not Bist/Extest)
  std::size_t guard = 2; ///< victim spacing (Parallel only)
  ExtestAlgorithm algorithm = ExtestAlgorithm::WalkingOnes;  // Extest only
  /// Extra defects for this session's unit, applied after the
  /// scenario-level ones.
  std::vector<DefectSpec> defects;
};

/// How the lowered campaign executes.
struct CampaignSpec {
  std::size_t shards = 1;       ///< 0 = one worker per hardware thread
  std::uint64_t seed = 0;       ///< resolves RandomCrosstalk placements
  bool keep_events = false;     ///< keep per-unit event streams in the result
  bool strict_metrics = true;   ///< MetricsSink TCK cross-check throws
  bool warm_prototype = true;   ///< pre-warm the shared prototype bus cache
};

/// Observability settings of every worker hub (mirrors obs::TracerConfig).
/// The tracer ring they describe is kept only with campaign.keep_events,
/// so trace_capacity and tap_edges take effect only then; without it the
/// hubs keep no ring.
struct ObsSpec {
  std::size_t trace_capacity = 1 << 16;
  bool tap_edges = true;
  bool cache_lookups = false;
  std::uint64_t tck_period_ps = 10'000;
};

/// Live telemetry of the lowered campaign (mirrors obs::TelemetryConfig).
/// Off by default, and strictly separate from the deterministic
/// report/metrics/events artifacts: heartbeats go to their own JSONL
/// channel. The serializer emits this section only when it differs from
/// the defaults, so existing scenario files stay canonical.
struct TelemetrySpec {
  bool enabled = false;
  std::uint64_t interval_ms = 250;  ///< sampler period
  std::string path;                 ///< heartbeat JSONL file ("" = none)

  bool is_default() const {
    return !enabled && interval_ms == 250 && path.empty();
  }
};

/// One process-variation axis of a sweep: the named si::BusParams scalar
/// is multiplied by a per-die factor of 1 + sigma * N(0,1), drawn from
/// the unit's own PRNG split (clamped below at 0.05 so a deep-tail draw
/// cannot produce a non-physical zero or negative value). Multiplicative
/// variation models a die-level process corner: all wires of the die
/// shift together.
struct VariationSpec {
  /// One of the topology's interconnect model's `variable_params()`:
  /// "vdd","r_driver","r_wire","c_ground","c_couple","l_wire" for every
  /// model, plus "swing_frac" under model "low_swing".
  std::string param;
  double sigma = 0.0;  ///< relative std-dev of the factor, >= 0
};

/// Shipping-spec limits that define a die's physics ground truth,
/// independent of the detector thresholds under test, so escapes and
/// overkill are well defined. Both limits are relative to the swing the
/// detector cells observe (`InterconnectModel::observed_swing`: vdd for
/// rc_full_swing, swing_frac * vdd for low_swing). The settle limit is
/// per scenario because a low-swing bus's rise is 1/swing_frac slower.
struct ShippingLimits {
  /// A wire is noisy when its worst quiet-wire excursion under the MA
  /// glitch stresses (Pg/Pg'/Ng/Ng') reaches this fraction of the swing.
  double max_glitch_frac = 0.45;
  /// A wire is skewed when its worst 50%-swing arrival under the MA skew
  /// stresses (Rs/Fs) is later than this [ps], or never happens.
  std::uint64_t max_settle_ps = 200;
};

/// Population-scale Monte-Carlo sweep: expands the scenario's single
/// session template into `samples` sampled dies at every point of the
/// detector-threshold grid (the cross product of the non-empty axes;
/// an empty axis contributes one point using the topology's defaults).
/// Total units = grid points x samples. Unit `i` is a pure function of
/// (spec, i, Prng(campaign.seed).split(i)) — see scenario/sweep.hpp —
/// which is what makes million-unit campaigns lazily schedulable,
/// checkpointable, and byte-identical at any shard or worker count.
struct SweepSpec {
  std::size_t samples = 1;  ///< dies per grid point, >= 1

  /// ND detector sensitivity grid: each value sets nd.v_hthr_frac, with
  /// nd.v_hmin_frac tracking 0.10 below it, so the arm/release
  /// hysteresis stays fixed while the threshold moves. Values in
  /// (0.10, 1.0).
  std::vector<double> nd_vhthr_frac;
  /// SD skew-budget grid [ps]: each value sets sd.skew_budget.
  std::vector<std::uint64_t> sd_budget_ps;

  /// Per-die process variation, applied in order to the topology's bus
  /// parameters before the session runs.
  std::vector<VariationSpec> variations;
  /// Per-die defect population. RandomCrosstalk entries here resolve
  /// with the DIE's PRNG split — every sampled die gets its own
  /// placements — unlike scenario-level defects, which resolve once from
  /// the campaign seed and hit every die identically.
  std::vector<DefectSpec> defects;

  /// Present = judge every completed die against physics ground truth
  /// under these limits and book escapes/overkill/wire confusion counts
  /// (see scenario/sweep.hpp). Absent = no truth solves and no truth
  /// counters or yield.json keys.
  std::optional<ShippingLimits> spec_limits;
};

/// A complete declarative scenario: one topology, its fabricated
/// defects, the sessions to run against it, and how to execute and
/// observe them. This is the single source every consumer lowers from —
/// examples, benches, the test suite and the `jsi` CLI all build the
/// same campaign from the same spec.
struct ScenarioSpec {
  std::string name;
  std::string description;
  TopologySpec topology;
  std::vector<DefectSpec> defects;   ///< applied to every session's unit
  std::vector<SessionSpec> sessions; ///< at least one
  /// Present = this is a sweep campaign: the single session acts as the
  /// template for every sampled unit (the parser enforces exactly one
  /// session, of a soc-topology kind).
  std::optional<SweepSpec> sweep;
  CampaignSpec campaign;
  ObsSpec obs;
  TelemetrySpec telemetry;

  /// Width of the topology's bus(es): n_wires, wires_per_bus or n_nets.
  std::size_t width() const;
};

}  // namespace jsi::scenario

#endif  // JSI_SCENARIO_SPEC_HPP

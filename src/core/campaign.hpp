#ifndef JSI_CORE_CAMPAIGN_HPP
#define JSI_CORE_CAMPAIGN_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/bist.hpp"
#include "core/report.hpp"
#include "core/session.hpp"
#include "core/soc.hpp"
#include "obs/hub.hpp"
#include "obs/registry.hpp"
#include "obs/telemetry.hpp"
#include "si/bus.hpp"
#include "si/model.hpp"

namespace jsi::core {

/// What one campaign work unit produced. Everything in here must be a
/// deterministic function of the unit alone (no wall-clock, no worker
/// ids): the merged campaign report concatenates these in work-unit
/// order and is required to be byte-identical for any shard count.
struct UnitOutcome {
  std::string name;     ///< the unit's stable name (runner-assigned)
  std::string summary;  ///< one-line result, e.g. flags and TCK counts
  std::size_t index = 0;  ///< position in the campaign's work-unit order
  std::uint64_t total_tcks = 0;
  std::uint64_t generation_tcks = 0;
  std::uint64_t observation_tcks = 0;
  bool violation = false;  ///< any sensor flag set
  bool failed = false;     ///< the unit threw; `summary` holds the error
};

/// Fold a session report into the outcome fields the merged campaign
/// report is built from: TCK split, violation flag and an
/// "nd=<flags> sd=<flags>" summary. Shared by the canned builders and
/// the sweep unit source.
UnitOutcome summarize(const IntegrityReport& rep);

/// The same for a BIST run: its TCK count (the controller runs one fused
/// program, unsplit into generation and observation) and a
/// "pass|fail nd=<flags> sd=<flags>" summary.
UnitOutcome summarize(const SiBistController::Result& res);

/// The same for a multi-bus session: its TCK split and one
/// "b<i>[nd=<flags> sd=<flags>]" group per bus.
UnitOutcome summarize(const MultiBusReport& rep);

/// Per-worker execution context handed to a running unit. The hub is the
/// worker's thread-local observer (reset before every unit, so a unit's
/// metrics/trace are identical no matter which worker runs it); the bus
/// factory seeds units from the campaign's warmed prototype.
class CampaignContext {
 public:
  CampaignContext(obs::Hub& hub, std::size_t worker, std::size_t unit,
                  const si::CoupledBus* prototype)
      : hub_(&hub), worker_(worker), unit_(unit), prototype_(prototype) {}

  /// The worker's thread-local observer. Attach it as the session sink;
  /// its registry and trace are snapshotted into the merged result when
  /// the unit returns.
  obs::Hub& hub() { return *hub_; }

  /// Index of the worker thread running this unit (0 when single-shard).
  /// For logging only — anything merged into the report must not depend
  /// on it.
  std::size_t worker() const { return worker_; }

  /// Index of this unit in the campaign's stable work-unit order.
  std::size_t unit_index() const { return unit_; }

  /// The campaign's prototype bus, nullptr when none was set.
  const si::CoupledBus* prototype() const { return prototype_; }

  /// A bus for this unit: a clone of the campaign prototype when one is
  /// set and `p` matches it exactly — width, the nine shared electrical
  /// fields, the interconnect model kind and the model's own params
  /// (`si::same_params`) — carrying over memoized waveforms and counters
  /// for a warm start; else a fresh bus built from `p`, so a prototype
  /// warmed under one model can never serve a unit that asked for
  /// another. Cloning per unit (rather than reusing one bus across a
  /// worker's units) keeps the observed cache behaviour independent of
  /// the sharding, which the byte-identity guarantee depends on.
  si::CoupledBus make_bus(const si::BusParams& p) const {
    if (si::matches_width(prototype_, p.n_wires) &&
        si::same_params(prototype_->params(), p)) {
      return prototype_->clone();
    }
    return si::CoupledBus(p);
  }

 private:
  obs::Hub* hub_;
  std::size_t worker_;
  std::size_t unit_;
  const si::CoupledBus* prototype_;
};

/// One independent work unit: a name (stable identifier in the merged
/// report) and a callable that runs the work against a worker context.
/// Units must not share mutable state with each other — the runner
/// executes them concurrently.
struct CampaignUnit {
  std::string name;
  std::function<UnitOutcome(CampaignContext&)> run;
};

/// Lazy producer of campaign units. A sweep campaign expands one spec
/// into 10^4..10^6 sampled units; pre-building that list would cost O(n)
/// memory and serialize campaign startup, so the runner instead asks the
/// source to materialize `unit(index)` on demand, from inside the worker
/// that will run it. Requirements:
///
///  * `unit(i)` is a PURE function of `i` — typically (spec, i, a
///    per-index PRNG split of the campaign seed) — so any unit is
///    reconstructible in isolation: workers never replay units 0..i-1,
///    resume never re-derives more than the chunks it actually runs, and
///    a unit's identity is independent of which worker claims it.
///  * `unit(i)` is thread-safe: workers call it concurrently.
class UnitSource {
 public:
  virtual ~UnitSource() = default;
  /// Total number of units (stable across calls).
  virtual std::size_t count() const = 0;
  /// Materialize unit `index` (0 <= index < count()).
  virtual CampaignUnit unit(std::size_t index) const = 0;
};

/// Aggregate books of a chunk of consecutive units — everything the
/// merged campaign totals need when per-unit outcomes are not retained.
struct ChunkAggregate {
  std::uint64_t units = 0;
  std::uint64_t violations = 0;
  std::uint64_t failures = 0;
  std::uint64_t total_tcks = 0;
  std::uint64_t generation_tcks = 0;
  std::uint64_t observation_tcks = 0;
};

/// Everything one completed chunk contributes to the merged campaign:
/// the unit-ordered merge of its units' registries, its aggregate books,
/// and (in non-aggregate mode) the per-unit outcomes. This is both the
/// runner's in-flight merge granule and the checkpoint file's record
/// unit — a chunk is re-runnable in isolation, so a checkpoint that
/// names completed chunks plus these records is a full resume point.
struct ChunkRecord {
  std::size_t chunk = 0;  ///< chunk id (index / chunk_size)
  ChunkAggregate agg;
  obs::Registry registry;
  /// Per-unit outcomes in unit order. In aggregate mode only failed
  /// units are retained (rare; kept so a million-unit sweep still names
  /// what broke), with `UnitOutcome::index` identifying them.
  std::vector<UnitOutcome> outcomes;
};

/// Runner configuration.
struct CampaignConfig {
  /// Worker threads. 0 = one per hardware thread; clamped to the unit
  /// count. 1 runs inline on the calling thread (the reference ordering
  /// every other shard count must reproduce byte for byte).
  std::size_t shards = 1;
  /// Per-worker hubs run the MetricsSink strict cross-check (a TCK
  /// accounting mismatch throws inside the unit and marks it failed).
  bool strict_metrics = true;
  /// Tracer settings of every worker hub.
  obs::TracerConfig trace{};
  /// Keep each unit's stamped event stream in the result (memory-heavy;
  /// determinism tests turn it on, production campaigns usually don't).
  bool keep_events = false;
  /// Live telemetry: streaming JSONL heartbeats + terminal progress.
  /// Disabled by default; enabling it must not (and provably does not —
  /// pinned by the telemetry determinism suite) change any deterministic
  /// artifact, because workers only publish into lock-free side slots
  /// the sampler thread reads.
  obs::TelemetryConfig telemetry{};

  /// Units per scheduling claim. Workers claim whole index ranges (one
  /// atomic increment, one publish and one checkpoint record per chunk
  /// instead of per unit). 0 = auto: 1 when per-unit outcomes are
  /// retained (the historic per-unit grouping, byte-exact with
  /// pre-chunking releases); in aggregate mode
  /// clamp(ceil(units / 64), 1, 64), so a sweep has at most 64 near-equal
  /// chunks and no worker idles through a short last round. The merged
  /// books do not depend on the layout — every campaign registry value
  /// is an integer (counters, histograms of TCK counts), so any grouping
  /// sums to the same numbers. The layout matters for checkpoints (the
  /// header records it; a resume under another layout is refused) and
  /// for the `--workers` range split, so it is a pure function of
  /// (unit count, chunk_size) and NEVER of the shard count.
  std::size_t chunk_size = 0;
  /// Fold outcomes into streaming per-chunk aggregates instead of
  /// retaining the per-unit list: O(1) memory in campaign size (only
  /// failed units are kept, by index). The canonical report then prints
  /// campaign totals instead of one line per unit. Incompatible with
  /// keep_events (run() throws std::invalid_argument).
  bool aggregate_outcomes = false;
  /// Sidecar checkpoint file ("" = none): every completed chunk's record
  /// is appended as one JSONL line, so a killed campaign loses at most
  /// the chunks in flight. Incompatible with keep_events.
  std::string checkpoint_path;
  /// Caller-supplied campaign identity (e.g. a hash of the scenario
  /// spec), stamped into the checkpoint header and validated on resume —
  /// resuming a checkpoint against a different spec throws.
  std::string fingerprint;
  /// Load checkpoint_path if it exists and skip its completed chunks;
  /// their records enter the merge exactly as if run fresh, so the final
  /// artifacts are byte-identical to an uninterrupted run.
  bool resume = false;
  /// Stop claiming new chunks after approximately this many fresh (not
  /// resumed) chunks this call; 0 = run to completion. With a checkpoint
  /// this turns run() into an incremental step — and it is the
  /// kill-at-a-boundary simulation the resume tests use.
  std::size_t max_chunks = 0;
  /// Restrict this run to work-unit indices [range_begin, range_end);
  /// range_end 0 = count(). Both ends must fall on chunk boundaries (or
  /// the campaign end). The multi-process `--workers` mode gives each
  /// forked worker a disjoint chunk-aligned range and merges their
  /// checkpoint records; a range-restricted result is marked incomplete.
  std::size_t range_begin = 0;
  std::size_t range_end = 0;
  /// Cooperative cancellation flag (not owned; may be nullptr). Workers
  /// poll it between chunk claims: once it reads true no new chunk is
  /// started, in-flight chunks finish (and still checkpoint), and run()
  /// returns an incomplete result with CampaignResult::cancelled set.
  /// This is the campaign service's cancel hook — a cancelled job keeps
  /// its determinism guarantees for everything that did complete.
  const std::atomic<bool>* cancel = nullptr;
};

/// Merged result of a campaign: per-unit outcomes in work-unit order, the
/// deterministically merged metrics registry, and the summed TCK books.
struct CampaignResult {
  /// Per-unit outcomes in work-unit order. Empty in aggregate mode —
  /// see `failed` for the retained failures and `units_run` for the
  /// folded count.
  std::vector<UnitOutcome> units;
  obs::Registry metrics;  ///< unit-ordered additive merge of all units
  /// Per-unit event streams (work-unit order), captured only when
  /// CampaignConfig::keep_events was set.
  std::vector<std::vector<obs::Event>> events;

  /// True when outcomes were folded into aggregates (units is empty).
  bool aggregated = false;
  /// Number of unit outcomes folded into this result (equals
  /// units.size() in non-aggregate mode).
  std::uint64_t units_run = 0;
  /// Aggregate mode only: the failed units, in work-unit order, with
  /// UnitOutcome::index set.
  std::vector<UnitOutcome> failed;
  /// False when this run did not fold every chunk — a range-restricted
  /// or max_chunks-limited call. Incomplete results are intermediate
  /// (checkpoint fodder), never final artifacts.
  bool complete = true;
  /// True when CampaignConfig::cancel was observed set during the run.
  /// A cancelled run is also incomplete unless the flag raced the last
  /// chunk claim.
  bool cancelled = false;

  std::uint64_t total_tcks = 0;
  std::uint64_t generation_tcks = 0;
  std::uint64_t observation_tcks = 0;
  std::size_t violations = 0;
  std::size_t failures = 0;
  std::size_t shards_used = 0;  ///< informational; not part of to_text()

  /// Final telemetry snapshot (per-worker utilization, measured rates),
  /// captured only when CampaignConfig::telemetry.enabled was set. Like
  /// shards_used it is informational: wall-clock data, never part of
  /// to_text() or any deterministic artifact.
  std::optional<obs::Snapshot> telemetry;

  /// The canonical campaign report: unit lines in work-unit order plus
  /// the summed totals. Byte-identical for every shard count (it depends
  /// only on unit outcomes, never on scheduling) — the tier-1 campaign
  /// determinism suite pins exactly this string.
  std::string to_text() const;
};

/// Sharded multi-threaded campaign runner. A campaign is a set of
/// independent work units (per-bus sessions, victim sweeps, defect-grid
/// points); `run()` fans them out over `shards` workers, each with its
/// own thread-local obs::Hub and its own warmed si::CoupledBus clones,
/// and joins into one deterministic merged result.
///
/// Scheduling is dynamic (workers pull the next unassigned unit), but
/// nothing scheduling-dependent leaks into the result: outcomes land in
/// a slot per unit, the merge folds slots in work-unit order, and every
/// unit observes through a freshly reset hub. Hence the core guarantee:
/// the merged report and registry of an N-shard run are byte-identical
/// to the 1-shard run's.
class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignConfig cfg = {});

  /// Prototype interconnect (not owned, must outlive run()): units of
  /// matching width start from a clone of it — warm its transition cache
  /// once, and every worker inherits the memoization. Read-only during
  /// run(), so sharing it across workers is safe.
  void set_prototype_bus(const si::CoupledBus* prototype);

  /// Extra sink attached to every worker hub (not owned; must be
  /// thread-safe — see obs::AggregatingSink). Receives every stamped
  /// event live, in completion order; use for progress metering, never
  /// for the deterministic books.
  void set_live_sink(obs::Sink* sink);

  /// Append a work unit (stable order: merge position == add order).
  void add(CampaignUnit unit);

  /// Run from a lazy source instead of the add()ed unit list (not owned,
  /// must outlive run()). Mutually exclusive with add() — run() throws
  /// std::invalid_argument when both are populated.
  void set_source(const UnitSource* source);

  // -- canned unit builders for the in-repo session kinds ------------------

  /// Optional per-unit defect injection, applied before the session runs:
  /// called once per bus of the unit's device, with the bus index.
  using BusSetup = std::function<void(std::size_t bus, si::CoupledBus&)>;

  void add_enhanced(std::string name, SocConfig cfg, ObservationMethod method,
                    BusSetup defects = {});
  void add_parallel(std::string name, SocConfig cfg, ObservationMethod method,
                    std::size_t guard, BusSetup defects = {});
  void add_conventional(std::string name, SocConfig cfg,
                        ObservationMethod method, BusSetup defects = {});
  void add_multibus(std::string name, SocConfig cfg, ObservationMethod method,
                    BusSetup defects = {});
  void add_bist(std::string name, SocConfig cfg, BusSetup defects = {});

  std::size_t size() const {
    return source_ != nullptr ? source_->count() : units_.size();
  }
  const CampaignConfig& config() const { return cfg_; }
  CampaignConfig& config() { return cfg_; }

  /// The chunk width run() will schedule with (resolves chunk_size 0 to
  /// the auto rule). Exposed so range planners (the multi-process worker
  /// split) can align ranges to chunk boundaries.
  std::size_t effective_chunk_size() const;

  /// Execute every unit and join. Safe to call repeatedly (each call is
  /// an independent campaign over the same unit list).
  CampaignResult run();

 private:
  CampaignConfig cfg_;
  std::vector<CampaignUnit> units_;
  const UnitSource* source_ = nullptr;
  const si::CoupledBus* prototype_ = nullptr;
  obs::Sink* live_sink_ = nullptr;
};

}  // namespace jsi::core

#endif  // JSI_CORE_CAMPAIGN_HPP

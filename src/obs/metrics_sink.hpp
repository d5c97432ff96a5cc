#ifndef JSI_OBS_METRICS_SINK_HPP
#define JSI_OBS_METRICS_SINK_HPP

#include <cstdint>

#include "obs/events.hpp"
#include "obs/registry.hpp"

namespace jsi::obs {

/// Folds the event stream into a Registry:
///
///   tck.total                       every StateEdge
///   tck.state.{shift,capture,update,pause,other}
///   tck.phase.{generation,observation}   split by the engine's op spans
///                                        (edges inside a Readout op are
///                                        observation, everything else
///                                        generation — the same rule the
///                                        engine and dry_run_cost use)
///   op.{Reset,LoadIr,ScanIr,ScanDr,UpdateDr,Readout}   TapOp counts
///   op.tcks                         per-TapOp latency histogram
///   plan.count / session.<kind>     executions
///   bus.transitions, bus.cache_hits, bus.cache_misses
///   detector.nd_fired, detector.sd_fired
///   sim.scheduler_events, jtag.protocol_violations
///   obs.consistency_errors          cross-check failures (see below)
///
/// Cross-check: every PlanEnd event carries the engine's own measured
/// totals (value = total, a = generation, b = observation TCKs). When
/// this sink also saw the TAP edges of that plan, the two accountings
/// must agree; a mismatch bumps `obs.consistency_errors` and — in strict
/// mode — throws, so tests pin dry-run == engine == metrics.
///
/// The tck.* handles are resolved at construction, so a StateEdge costs a
/// few increments, not a map lookup, and a scan body (on_shift_run) the
/// same few additions of its length. The op.*, bus.* and detector.*
/// counters are resolved on first use and kept, so a registry gains
/// those keys only once it has something to count in them.
class MetricsSink final : public Sink {
 public:
  explicit MetricsSink(Registry& reg);

  Registry& registry() { return *reg_; }

  /// Throw std::logic_error when engine and edge-count accountings of a
  /// plan disagree (instead of only counting the mismatch).
  void set_strict(bool on) { strict_ = on; }
  bool strict() const { return strict_; }

  std::uint64_t consistency_errors() const { return errors_; }

  /// Forget any in-flight plan accounting (edge counts since PlanBegin,
  /// the in-observation flag). Used when a stream is abandoned mid-plan —
  /// e.g. a campaign worker whose unit threw — so the next plan's
  /// cross-check starts clean. Registered metrics are untouched.
  void reset_plan_state() {
    in_observation_ = false;
    plan_edges_ = 0;
    plan_generation_ = 0;
    plan_observation_ = 0;
  }

  void on_event(const Event& e) override;
  void on_shift_run(const Event& first_edge, const util::BitVec& tdi) override;

 private:
  /// Fold `edges` StateEdges of one phase.
  void fold_edges(TckPhase phase, std::uint64_t edges);
  /// `*slot`, resolving it to the counter `name` on first use.
  Counter& lazy(Counter*& slot, const char* name);
  /// The op.<name> counter of a TapOp kind label.
  Counter& op_counter(const char* name);

  Registry* reg_;
  // Pre-resolved hot-path handles (stable: Registry is node-based).
  Counter* tck_total_;
  Counter* tck_state_[kTckPhaseCount];
  Counter* tck_generation_;
  Counter* tck_observation_;
  Histogram* op_tcks_;
  // Resolved on first use (see the class comment).
  Counter* bus_transitions_ = nullptr;
  Counter* bus_cache_hits_ = nullptr;
  Counter* bus_cache_misses_ = nullptr;
  Counter* nd_fired_ = nullptr;
  Counter* sd_fired_ = nullptr;
  // op.<name> by the label's address: labels are static strings, one
  // per TapOp kind. Past kOpSlots distinct addresses a label is looked
  // up by name each time.
  static constexpr std::size_t kOpSlots = 8;
  const char* op_names_[kOpSlots] = {};
  Counter* op_counters_[kOpSlots] = {};
  std::size_t ops_ = 0;

  bool strict_ = false;
  bool in_observation_ = false;  // inside a Readout op span
  std::uint64_t errors_ = 0;
  // Edge counts since the last PlanBegin, for the PlanEnd cross-check.
  std::uint64_t plan_edges_ = 0;
  std::uint64_t plan_generation_ = 0;
  std::uint64_t plan_observation_ = 0;
};

}  // namespace jsi::obs

#endif  // JSI_OBS_METRICS_SINK_HPP

#ifndef JSI_E2E_TRACE_HPP
#define JSI_E2E_TRACE_HPP

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/events.hpp"
#include "scenario/run.hpp"

namespace jsi::e2e {

/// Nanoseconds on the steady clock (the one time base of every span).
std::int64_t now_ns();

/// Benchmark-owned live sink: timestamps the layer-boundary events the
/// program already emits, on each worker thread, and folds the gaps
/// between them into per-layer self times:
///
///   BusTransition -> last CacheLookup of that transition      si.solve
///   that lookup   -> next non-lookup event (StateEdge, ...)   si.detect
///   rest of a TapOp span                                      jtag
///   rest of the PlanBegin -> PlanEnd window                   core.engine
///   rest of the first -> last StateEdge window of a session
///     without a plan (the BIST controller clocks the TAP)     jtag
///   SessionEnd    -> next SessionBegin on the same thread     core.unit_gap
///
/// Session time outside those windows and outside every child span stays
/// unattributed, so coverage() below 1 is a measurement, not a remainder.
/// On a memo miss the cache probe is emitted before the solve, so the last
/// wire's solve lands in si.detect; si.memo_misses bounds that blur. Spans
/// must nest (session > plan > TapOp > transition); every violation is
/// counted.
class LayerSink final : public obs::Sink {
 public:
  struct Totals {
    std::uint64_t session_ns = 0;
    std::uint64_t si_solve_ns = 0;
    std::uint64_t si_detect_ns = 0;
    std::uint64_t jtag_ns = 0;
    std::uint64_t engine_ns = 0;
    std::uint64_t unit_gap_ns = 0;
    std::uint64_t sessions = 0;
    std::uint64_t ops = 0;
    std::uint64_t transitions = 0;
    std::uint64_t edges = 0;  ///< StateEdge records = TCKs driven
    std::uint64_t nest_errors = 0;
    std::vector<std::uint64_t> worker_busy_ns;  ///< session time per thread
    std::vector<std::int64_t> worker_last_end;  ///< last SessionEnd per thread
  };

  // Out of line: Slot is incomplete here.
  LayerSink();
  ~LayerSink() override;
  LayerSink(const LayerSink&) = delete;
  LayerSink& operator=(const LayerSink&) = delete;

  /// Forget all slots; events from now on belong to a new run.
  void begin_run();
  void on_event(const obs::Event& e) override;
  /// Fold every thread's slot. Call after the run's workers are joined.
  Totals totals() const;

  /// Share of traced session time the named layers account for.
  static double coverage(const Totals& t);

 private:
  struct Slot;
  Slot& slot();

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::uint64_t epoch_ = 0;
};

/// Additive books of one or more traced campaign runs. Times in ns.
struct LayerBooks {
  double parse_ns = 0, build_ns = 0, run_ns = 0, render_ns = 0, write_ns = 0;
  double materialize_ns = 0, materialized = 0;
  double chunk_size = 0, chunks = 0;
  double busy_ns = 0, busy_capacity_ns = 0, busy_min_frac = 1;
  double tail_ns = 0, merge_ns = 0;
  double ckpt_records = 0, ckpt_bytes = 0;
  LayerSink::Totals layers;  ///< summed (per-worker vectors unused)
  double table_hits = 0, table_misses = 0, memo_hits = 0, memo_misses = 0;
  double nd_fired = 0, sd_fired = 0;
  double units = 0, violations = 0, failures = 0, total_tcks = 0;
  double wall_ns = 0;  ///< the whole traced iteration

  void add(const LayerBooks& o);
  /// The per-layer metrics (everything except serve.* and obs.*).
  std::vector<Metric> metrics() const;
};

struct CampaignRun {
  scenario::ScenarioOutcome outcome;
  double wall_s = 0;
};

/// The untraced path, exactly what `jsi run` does: parse_scenario +
/// run_scenario + write_artifacts.
CampaignRun plain_run(const std::string& text, const std::string& checkpoint,
                      const std::string& out_dir);

struct TracedRun {
  scenario::ScenarioOutcome outcome;
  LayerBooks books;
};

/// The traced path: run_scenario's steps repeated one public call at a
/// time (parse_scenario, build_campaign, set_live_sink, run, render,
/// write_artifacts), each timed, with `sink` on every worker hub.
TracedRun traced_run(const std::string& text, const std::string& checkpoint,
                     const std::string& out_dir, LayerSink& sink);

}  // namespace jsi::e2e

#endif  // JSI_E2E_TRACE_HPP

#ifndef JSI_OBS_AGGREGATE_HPP
#define JSI_OBS_AGGREGATE_HPP

#include <mutex>

#include "obs/events.hpp"
#include "obs/metrics_sink.hpp"
#include "obs/registry.hpp"

namespace jsi::obs {

/// Thread-safe fan-in: many threads' event streams folded into one
/// shared Registry under a mutex — the live, cross-worker view of a
/// sharded campaign (per-worker Hubs stay lock-free; this sink is the
/// optional global meter they additionally feed).
///
/// Two caveats follow from interleaving:
///  * PlanEnd events are dropped before folding. The MetricsSink's
///    per-plan TCK cross-check assumes one plan at a time; with workers
///    interleaved, the edge counts since "the last PlanBegin" mix plans
///    and the check would fire spuriously. Per-plan consistency is still
///    enforced — by each worker's own strict Hub.
///  * Aggregate counters are totals only; nothing about per-plan or
///    per-session attribution survives the interleave. The campaign's
///    deterministic merged Registry (unit-ordered) is the one to assert
///    against; this sink is for live dashboards and progress metering.
class AggregatingSink final : public Sink {
 public:
  AggregatingSink() : metrics_(registry_) {}

  void on_event(const Event& e) override {
    if (e.kind == EventKind::PlanEnd) return;  // see class comment
    const std::lock_guard<std::mutex> lock(mu_);
    metrics_.on_event(e);
  }

  /// A scan body folds under one lock, in O(1).
  void on_shift_run(const Event& first_edge, const util::BitVec& tdi) override {
    const std::lock_guard<std::mutex> lock(mu_);
    metrics_.on_shift_run(first_edge, tdi);
  }

  /// Consistent copy of the aggregate registry (taken under the lock).
  Registry snapshot() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return registry_;
  }

  /// Total of one counter, read under the lock.
  std::uint64_t counter_value(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mu_);
    return registry_.counter_value(name);
  }

 private:
  mutable std::mutex mu_;
  Registry registry_;
  MetricsSink metrics_;
};

}  // namespace jsi::obs

#endif  // JSI_OBS_AGGREGATE_HPP

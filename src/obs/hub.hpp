#ifndef JSI_OBS_HUB_HPP
#define JSI_OBS_HUB_HPP

#include <vector>

#include "obs/events.hpp"
#include "obs/metrics_sink.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"

namespace jsi::obs {

/// The one-stop observer a session attaches: owns a Tracer and a metrics
/// Registry, stamps incoming events with the last-seen TCK (so records
/// from layers that have no clock — detectors, the bus cache — inherit
/// the edge that caused them), and fans the stamped stream out to the
/// metrics fold, the tracer, and any extra sinks. Each record is stamped
/// once, here; the tracer takes it as stamped.
///
/// A scan body (on_shift_run) goes to the metrics fold whole, in O(1).
/// The hub expands it into stamped per-edge records only for a tracer
/// ring that keeps StateEdges and for the extra sinks, so both see
/// exactly the stream of per-edge calls. A hub whose tracer has no ring
/// (capacity 0) and no extra sinks pays for a scan body once, not per
/// edge.
class Hub final : public Sink {
 public:
  Hub() : Hub(TracerConfig{}) {}
  explicit Hub(TracerConfig cfg)
      : tracer_(cfg), metrics_(registry_), period_ps_(cfg.tck_period_ps) {}

  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }
  MetricsSink& metrics() { return metrics_; }

  /// Strict TCK-accounting cross-check (throws on mismatch) — see
  /// MetricsSink.
  void set_strict(bool on) { metrics_.set_strict(on); }

  /// Additional fan-out target (not owned). Receives stamped events.
  void add_sink(Sink* s) { extra_.push_back(s); }

  /// Return the hub to its just-constructed observation state: metrics
  /// zeroed (names kept), tracer ring cleared, TCK stamping restarted
  /// from zero, any in-flight plan accounting dropped. Extra sinks stay
  /// attached and are not reset (they aggregate across resets). Campaign
  /// workers call this between work units so every unit is observed from
  /// an identical starting state regardless of which worker runs it.
  void reset() {
    registry_.reset();
    metrics_.reset_plan_state();
    tracer_.clear();
    last_tck_ = 0;
  }

  void on_event(const Event& e) override {
    Event stamped = e;
    if (stamped.tck == Event::kNoStamp) {
      stamped.tck = last_tck_;
    } else {
      last_tck_ = stamped.tck;
    }
    if (stamped.time_ps == Event::kNoStamp) {
      stamped.time_ps = stamped.tck * period_ps_;
    }
    metrics_.on_event(stamped);
    tracer_.record(stamped);
    for (Sink* s : extra_) s->on_event(stamped);
  }

  void on_shift_run(const Event& first_edge, const util::BitVec& tdi) override {
    last_tck_ = first_edge.tck + tdi.size() - 1;
    metrics_.on_shift_run(first_edge, tdi);
    if (extra_.empty()) {
      tracer_.on_shift_run(first_edge, tdi);  // expands only to keep edges
      return;
    }
    for (std::size_t i = 0; i < tdi.size(); ++i) {
      Event e = shift_run_edge(first_edge, tdi, i);
      e.time_ps = e.tck * period_ps_;
      tracer_.record(e);
      for (Sink* s : extra_) s->on_event(e);
    }
  }

 private:
  Registry registry_;
  Tracer tracer_;
  MetricsSink metrics_;
  std::vector<Sink*> extra_;
  std::uint64_t period_ps_;
  std::uint64_t last_tck_ = 0;
};

}  // namespace jsi::obs

#endif  // JSI_OBS_HUB_HPP

#include "obs/metrics_sink.hpp"

#include <stdexcept>
#include <string>

namespace jsi::obs {

MetricsSink::MetricsSink(Registry& reg) : reg_(&reg) {
  tck_total_ = &reg.counter("tck.total");
  for (int p = 0; p < kTckPhaseCount; ++p) {
    tck_state_[p] = &reg.counter(
        std::string("tck.state.") + tck_phase_name(static_cast<TckPhase>(p)));
  }
  tck_generation_ = &reg.counter("tck.phase.generation");
  tck_observation_ = &reg.counter("tck.phase.observation");
  op_tcks_ = &reg.histogram("op.tcks");
}

void MetricsSink::fold_edges(TckPhase phase, std::uint64_t edges) {
  tck_total_->inc(edges);
  tck_state_[static_cast<int>(phase)]->inc(edges);
  plan_edges_ += edges;
  if (in_observation_) {
    tck_observation_->inc(edges);
    plan_observation_ += edges;
  } else {
    tck_generation_->inc(edges);
    plan_generation_ += edges;
  }
}

Counter& MetricsSink::lazy(Counter*& slot, const char* name) {
  if (slot == nullptr) slot = &reg_->counter(name);
  return *slot;
}

Counter& MetricsSink::op_counter(const char* name) {
  for (std::size_t i = 0; i < ops_; ++i) {
    if (op_names_[i] == name) return *op_counters_[i];
  }
  Counter& c = reg_->counter(std::string("op.") + name);
  if (ops_ < kOpSlots) {
    op_names_[ops_] = name;
    op_counters_[ops_] = &c;
    ++ops_;
  }
  return c;
}

void MetricsSink::on_shift_run(const Event& first_edge,
                               const util::BitVec& tdi) {
  fold_edges(first_edge.phase, tdi.size());
}

void MetricsSink::on_event(const Event& e) {
  switch (e.kind) {
    case EventKind::StateEdge:
      fold_edges(e.phase, 1);
      break;
    case EventKind::TapOpBegin:
      op_counter(e.name).inc();
      if (e.b == 1) in_observation_ = true;
      break;
    case EventKind::TapOpEnd:
      op_tcks_->observe(static_cast<double>(e.value));
      in_observation_ = false;
      break;
    case EventKind::PlanBegin:
      reg_->counter("plan.count").inc();
      plan_edges_ = 0;
      plan_generation_ = 0;
      plan_observation_ = 0;
      in_observation_ = false;
      break;
    case EventKind::PlanEnd: {
      // Engine-measured totals ride in the event; compare only when this
      // sink actually saw the plan's edges (a session may attach the
      // engine but not the TAP master).
      if (plan_edges_ > 0 &&
          (plan_edges_ != e.value ||
           plan_generation_ != static_cast<std::uint64_t>(e.a) ||
           plan_observation_ != static_cast<std::uint64_t>(e.b))) {
        ++errors_;
        reg_->counter("obs.consistency_errors").inc();
        if (strict_) {
          throw std::logic_error(
              "obs: TCK accounting mismatch: engine total/gen/obs = " +
              std::to_string(e.value) + "/" + std::to_string(e.a) + "/" +
              std::to_string(e.b) + ", metrics = " +
              std::to_string(plan_edges_) + "/" +
              std::to_string(plan_generation_) + "/" +
              std::to_string(plan_observation_));
        }
      }
      break;
    }
    case EventKind::SessionBegin:
      reg_->counter(std::string("session.") + e.name).inc();
      break;
    case EventKind::SessionEnd:
      break;
    case EventKind::BusTransition:
      lazy(bus_transitions_, "bus.transitions").inc();
      break;
    case EventKind::CacheLookup:
      // One record per store lookup call, carrying its wire tallies. The
      // counters are created only once they have something to count, so
      // registries without bus traffic keep their key set.
      if (e.a > 0) {
        lazy(bus_cache_hits_, "bus.cache_hits")
            .inc(static_cast<std::uint64_t>(e.a));
      }
      if (e.b > 0) {
        lazy(bus_cache_misses_, "bus.cache_misses")
            .inc(static_cast<std::uint64_t>(e.b));
      }
      break;
    case EventKind::DetectorFired:
      if (e.name[0] == 'N') {
        lazy(nd_fired_, "detector.nd_fired").inc();
      } else {
        lazy(sd_fired_, "detector.sd_fired").inc();
      }
      break;
    case EventKind::SchedulerRun:
      reg_->counter("sim.scheduler_events").inc(e.value);
      break;
    case EventKind::ProtocolViolation:
      reg_->counter("jtag.protocol_violations").inc();
      break;
    case EventKind::Mark:
      break;
  }
}

}  // namespace jsi::obs

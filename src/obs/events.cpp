#include "obs/events.hpp"

namespace jsi::obs {

void Sink::on_shift_run(const Event& first_edge, const util::BitVec& tdi) {
  for (std::size_t i = 0; i < tdi.size(); ++i) {
    on_event(shift_run_edge(first_edge, tdi, i));
  }
}

void Sink::on_edges(const Event* edges, std::size_t n,
                    std::uint64_t first_tck) {
  for (std::size_t i = 0; i < n; ++i) {
    Event e = edges[i];
    e.tck = first_tck + i;
    on_event(e);
  }
}

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::SessionBegin: return "SessionBegin";
    case EventKind::SessionEnd: return "SessionEnd";
    case EventKind::PlanBegin: return "PlanBegin";
    case EventKind::PlanEnd: return "PlanEnd";
    case EventKind::TapOpBegin: return "TapOpBegin";
    case EventKind::TapOpEnd: return "TapOpEnd";
    case EventKind::StateEdge: return "StateEdge";
    case EventKind::BusTransition: return "BusTransition";
    case EventKind::CacheLookup: return "CacheLookup";
    case EventKind::DetectorFired: return "DetectorFired";
    case EventKind::SchedulerRun: return "SchedulerRun";
    case EventKind::ProtocolViolation: return "ProtocolViolation";
    case EventKind::Mark: return "Mark";
  }
  return "?";
}

const char* tck_phase_name(TckPhase p) {
  switch (p) {
    case TckPhase::Shift: return "shift";
    case TckPhase::Capture: return "capture";
    case TckPhase::Update: return "update";
    case TckPhase::Pause: return "pause";
    case TckPhase::Other: return "other";
  }
  return "?";
}

}  // namespace jsi::obs

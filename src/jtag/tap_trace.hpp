#ifndef JSI_JTAG_TAP_TRACE_HPP
#define JSI_JTAG_TAP_TRACE_HPP

#include <cstdint>

#include "jtag/tap_state.hpp"
#include "obs/events.hpp"

namespace jsi::jtag {

/// Micro-phase of a TCK edge whose acting (pre-transition) state is `s` —
/// the single classification both the TapMaster's edge tracing and the
/// ProtocolMonitor's statistics are built on.
constexpr obs::TckPhase tck_phase(TapState s) {
  switch (s) {
    case TapState::ShiftDr:
    case TapState::ShiftIr: return obs::TckPhase::Shift;
    case TapState::CaptureDr:
    case TapState::CaptureIr: return obs::TckPhase::Capture;
    case TapState::UpdateDr:
    case TapState::UpdateIr: return obs::TckPhase::Update;
    case TapState::PauseDr:
    case TapState::PauseIr: return obs::TckPhase::Pause;
    default: return obs::TckPhase::Other;
  }
}

/// The one TAP-edge event model: every layer that sees TCK edges
/// (TapMaster, ProtocolMonitor, the BIST controller's replay loop)
/// produces this exact record, so a trace has a single edge stream no
/// matter where it was tapped.
constexpr obs::Event tap_edge_event(TapState acting, bool tms, bool tdi,
                                    std::uint64_t tck) {
  obs::Event e;
  e.kind = obs::EventKind::StateEdge;
  e.phase = tck_phase(acting);
  e.tck = tck;
  // tap_state_name returns views over string literals, so .data() is a
  // valid NUL-terminated static-lifetime string.
  e.name = tap_state_name(acting).data();
  e.a = tms ? 1 : 0;
  e.b = tdi ? 1 : 0;
  return e;
}

}  // namespace jsi::jtag

#endif  // JSI_JTAG_TAP_TRACE_HPP

#include "jtag/master.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>

#include "jtag/tap_trace.hpp"

namespace jsi::jtag {

namespace {

// The fixed edge runs of the operations below, each from a known state.
// A device emits nothing on a capture, a navigation edge or a reset (a
// reset re-establishes the bus levels without a transition), so only a
// run's last edge can make it emit: a run goes to the sink first, as one
// on_edges call, and the stream is that of clocking its edges one by one.

// Run-Test/Idle -> Select-DR-Scan -> Capture-DR, capture executes;
// -> Shift-DR.
constexpr obs::Event kDrHead[] = {
    tap_edge_event(TapState::RunTestIdle, true, false, 0),
    tap_edge_event(TapState::SelectDrScan, false, false, 0),
    tap_edge_event(TapState::CaptureDr, false, false, 0)};
// Exit1-DR -> Update-DR, update executes; -> Run-Test/Idle.
constexpr obs::Event kDrTail[] = {
    tap_edge_event(TapState::Exit1Dr, true, false, 0),
    tap_edge_event(TapState::UpdateDr, false, false, 0)};
// Run-Test/Idle -> Select-DR-Scan -> Select-IR-Scan -> Capture-IR,
// capture executes; -> Shift-IR.
constexpr obs::Event kIrHead[] = {
    tap_edge_event(TapState::RunTestIdle, true, false, 0),
    tap_edge_event(TapState::SelectDrScan, true, false, 0),
    tap_edge_event(TapState::SelectIrScan, false, false, 0),
    tap_edge_event(TapState::CaptureIr, false, false, 0)};
// Exit1-IR -> Update-IR, update executes; -> Run-Test/Idle.
constexpr obs::Event kIrTail[] = {
    tap_edge_event(TapState::Exit1Ir, true, false, 0),
    tap_edge_event(TapState::UpdateIr, false, false, 0)};
// Select-DR-Scan, Capture-DR (capture executes), Exit1-DR, Update-DR
// (update executes), back to Run-Test/Idle.
constexpr obs::Event kPulse[] = {
    tap_edge_event(TapState::RunTestIdle, true, false, 0),
    tap_edge_event(TapState::SelectDrScan, false, false, 0),
    tap_edge_event(TapState::CaptureDr, true, false, 0),
    tap_edge_event(TapState::Exit1Dr, true, false, 0),
    tap_edge_event(TapState::UpdateDr, false, false, 0)};
// reset_to_idle from Run-Test/Idle and from Test-Logic-Reset.
constexpr obs::Event kResetFromIdle[] = {
    tap_edge_event(TapState::RunTestIdle, true, false, 0),
    tap_edge_event(TapState::SelectDrScan, true, false, 0),
    tap_edge_event(TapState::SelectIrScan, true, false, 0),
    tap_edge_event(TapState::TestLogicReset, true, false, 0),
    tap_edge_event(TapState::TestLogicReset, true, false, 0),
    tap_edge_event(TapState::TestLogicReset, false, false, 0)};
constexpr obs::Event kResetFromReset[] = {
    tap_edge_event(TapState::TestLogicReset, true, false, 0),
    tap_edge_event(TapState::TestLogicReset, true, false, 0),
    tap_edge_event(TapState::TestLogicReset, true, false, 0),
    tap_edge_event(TapState::TestLogicReset, true, false, 0),
    tap_edge_event(TapState::TestLogicReset, true, false, 0),
    tap_edge_event(TapState::TestLogicReset, false, false, 0)};

}  // namespace

void TapMaster::clock_run(const obs::Event* edges, std::size_t n) {
  if (sink_) sink_->on_edges(edges, n, tck_ + 1);
  for (std::size_t i = 0; i < n; ++i) {
    const bool tms = edges[i].a != 0;
    ++tck_;
    port_->tick(tms, edges[i].b != 0);
    state_ = next_state(state_, tms);
  }
}

util::Logic TapMaster::clock(bool tms, bool tdi) {
  ++tck_;
  if (sink_) sink_->on_event(tap_edge_event(state_, tms, tdi, tck_));
  const util::Logic tdo = port_->tick(tms, tdi);
  state_ = next_state(state_, tms);
  return tdo;
}

util::BitVec TapMaster::shift_body(const util::BitVec& bits) {
  if (sink_) {
    sink_->on_shift_run(
        tap_edge_event(state_, bits.size() == 1, bits[0], tck_ + 1), bits);
  }
  tck_ += bits.size();
  state_ = next_state(state_, true);
  return port_->shift_run(bits);
}

void TapMaster::require_idle(const char* op) const {
  if (state_ != TapState::RunTestIdle) {
    throw std::logic_error(std::string(op) + " requires Run-Test/Idle, not " +
                           std::string(tap_state_name(state_)));
  }
}

void TapMaster::reset_to_idle() {
  if (state_ == TapState::RunTestIdle) {
    clock_run(kResetFromIdle, std::size(kResetFromIdle));
  } else if (state_ == TapState::TestLogicReset) {
    clock_run(kResetFromReset, std::size(kResetFromReset));
  } else {
    // From mid-scan an edge on the way may update a register, and a
    // device may emit there: clock edge by edge.
    for (int i = 0; i < 5; ++i) clock(true);
    clock(false);  // Test-Logic-Reset -> Run-Test/Idle
  }
}

void TapMaster::goto_state(TapState target) {
  for (const bool tms : tms_path(state_, target)) clock(tms);
}

util::BitVec TapMaster::scan_dr(const util::BitVec& bits) {
  require_idle("scan_dr");
  if (bits.empty()) throw std::invalid_argument("scan_dr of zero bits");
  clock_run(kDrHead, std::size(kDrHead));
  const util::BitVec out = shift_body(bits);  // last edge -> Exit1-DR
  clock_run(kDrTail, std::size(kDrTail));
  return out;
}

util::BitVec TapMaster::scan_dr_paused(const util::BitVec& bits,
                                       std::size_t pause_every,
                                       std::size_t pause_clocks) {
  require_idle("scan_dr_paused");
  if (bits.empty()) throw std::invalid_argument("scan of zero bits");
  if (pause_every == 0) throw std::invalid_argument("pause_every == 0");
  clock(true);   // -> Select-DR-Scan
  clock(false);  // -> Capture-DR
  clock(false);  // capture executes; -> Shift-DR
  util::BitVec out;
  for (std::size_t first = 0; first < bits.size(); first += pause_every) {
    const std::size_t len = std::min(pause_every, bits.size() - first);
    // Each segment's last edge shifts too, and moves to Exit1-DR.
    out = out.concat(shift_body(bits.slice(first, len)));
    if (first + len < bits.size()) {
      clock(false);  // Exit1-DR -> Pause-DR
      for (std::size_t p = 0; p < pause_clocks; ++p) clock(false);
      clock(true);   // Pause-DR -> Exit2-DR
      clock(false);  // Exit2-DR -> Shift-DR (no shift on this edge: the
                     // acting state is Exit2-DR)
    }
  }
  clock(true);   // Exit1-DR -> Update-DR
  clock(false);  // update executes; -> Run-Test/Idle
  return out;
}

util::BitVec TapMaster::scan_ir(const util::BitVec& bits) {
  require_idle("scan_ir");
  if (bits.empty()) throw std::invalid_argument("scan_ir of zero bits");
  clock_run(kIrHead, std::size(kIrHead));
  const util::BitVec out = shift_body(bits);  // last edge -> Exit1-IR
  clock_run(kIrTail, std::size(kIrTail));
  return out;
}

void TapMaster::pulse_update_dr() {
  require_idle("pulse_update_dr");
  clock_run(kPulse, std::size(kPulse));
}

void TapMaster::run_idle(std::size_t n) {
  require_idle("run_idle");
  for (std::size_t i = 0; i < n; ++i) clock(false);
}

}  // namespace jsi::jtag

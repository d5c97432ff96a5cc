#ifndef JSI_JTAG_TAP_STATE_HPP
#define JSI_JTAG_TAP_STATE_HPP

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

namespace jsi::jtag {

/// The 16 controller states of the IEEE 1149.1 TAP finite-state machine.
enum class TapState : std::uint8_t {
  TestLogicReset,
  RunTestIdle,
  SelectDrScan,
  CaptureDr,
  ShiftDr,
  Exit1Dr,
  PauseDr,
  Exit2Dr,
  UpdateDr,
  SelectIrScan,
  CaptureIr,
  ShiftIr,
  Exit1Ir,
  PauseIr,
  Exit2Ir,
  UpdateIr,
};

inline constexpr int kTapStateCount = 16;

/// The IEEE 1149.1 state-transition function: the state entered by a
/// rising TCK edge that samples `tms` while the controller is in `s`.
constexpr TapState next_state(TapState s, bool tms) {
  switch (s) {
    case TapState::TestLogicReset:
      return tms ? TapState::TestLogicReset : TapState::RunTestIdle;
    case TapState::RunTestIdle:
      return tms ? TapState::SelectDrScan : TapState::RunTestIdle;
    case TapState::SelectDrScan:
      return tms ? TapState::SelectIrScan : TapState::CaptureDr;
    case TapState::CaptureDr:
      return tms ? TapState::Exit1Dr : TapState::ShiftDr;
    case TapState::ShiftDr:
      return tms ? TapState::Exit1Dr : TapState::ShiftDr;
    case TapState::Exit1Dr:
      return tms ? TapState::UpdateDr : TapState::PauseDr;
    case TapState::PauseDr:
      return tms ? TapState::Exit2Dr : TapState::PauseDr;
    case TapState::Exit2Dr:
      return tms ? TapState::UpdateDr : TapState::ShiftDr;
    case TapState::UpdateDr:
      return tms ? TapState::SelectDrScan : TapState::RunTestIdle;
    case TapState::SelectIrScan:
      return tms ? TapState::TestLogicReset : TapState::CaptureIr;
    case TapState::CaptureIr:
      return tms ? TapState::Exit1Ir : TapState::ShiftIr;
    case TapState::ShiftIr:
      return tms ? TapState::Exit1Ir : TapState::ShiftIr;
    case TapState::Exit1Ir:
      return tms ? TapState::UpdateIr : TapState::PauseIr;
    case TapState::PauseIr:
      return tms ? TapState::Exit2Ir : TapState::PauseIr;
    case TapState::Exit2Ir:
      return tms ? TapState::UpdateIr : TapState::ShiftIr;
    case TapState::UpdateIr:
      return tms ? TapState::SelectDrScan : TapState::RunTestIdle;
  }
  return TapState::TestLogicReset;
}

/// True for the two states in which a register stage shifts on TCK.
constexpr bool is_shift_state(TapState s) {
  return s == TapState::ShiftDr || s == TapState::ShiftIr;
}

/// True for states belonging to the data-register column of the FSM.
constexpr bool is_dr_state(TapState s) {
  switch (s) {
    case TapState::SelectDrScan:
    case TapState::CaptureDr:
    case TapState::ShiftDr:
    case TapState::Exit1Dr:
    case TapState::PauseDr:
    case TapState::Exit2Dr:
    case TapState::UpdateDr: return true;
    default: return false;
  }
}

/// Canonical state name, e.g. "Shift-DR". Inline: a traced TCK edge
/// reads it for its record.
constexpr std::string_view tap_state_name(TapState s) {
  switch (s) {
    case TapState::TestLogicReset: return "Test-Logic-Reset";
    case TapState::RunTestIdle: return "Run-Test/Idle";
    case TapState::SelectDrScan: return "Select-DR-Scan";
    case TapState::CaptureDr: return "Capture-DR";
    case TapState::ShiftDr: return "Shift-DR";
    case TapState::Exit1Dr: return "Exit1-DR";
    case TapState::PauseDr: return "Pause-DR";
    case TapState::Exit2Dr: return "Exit2-DR";
    case TapState::UpdateDr: return "Update-DR";
    case TapState::SelectIrScan: return "Select-IR-Scan";
    case TapState::CaptureIr: return "Capture-IR";
    case TapState::ShiftIr: return "Shift-IR";
    case TapState::Exit1Ir: return "Exit1-IR";
    case TapState::PauseIr: return "Pause-IR";
    case TapState::Exit2Ir: return "Exit2-IR";
    case TapState::UpdateIr: return "Update-IR";
  }
  return "?";
}

/// Shortest TMS sequence that moves the controller from `from` to `to`
/// (BFS over the FSM; ties prefer TMS=0). Empty when from == to.
std::vector<bool> tms_path(TapState from, TapState to);

std::ostream& operator<<(std::ostream& os, TapState s);

}  // namespace jsi::jtag

#endif  // JSI_JTAG_TAP_STATE_HPP

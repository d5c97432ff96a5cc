#ifndef JSI_JTAG_MASTER_HPP
#define JSI_JTAG_MASTER_HPP

#include <cstdint>

#include "jtag/device.hpp"
#include "jtag/tap_state.hpp"
#include "obs/events.hpp"
#include "util/bitvec.hpp"

namespace jsi::jtag {

/// Host-side TAP driver — the role the ATE plays in the paper's Fig 8/12
/// procedures. Generates TMS/TDI sequences, mirrors the controller state,
/// and counts every TCK it issues; the Tables 5-6 clock budgets are *read
/// off this counter*, not computed from formulas.
///
/// All scan operations start from and return to Run-Test/Idle.
class TapMaster {
 public:
  explicit TapMaster(TapPort& port) : port_(&port) {}

  /// Closed-form primitive costs of the operations below, emergent from
  /// the TAP FSM walk and asserted equal to the measured counts in tests.
  /// Shared by analysis::TimeModel and the test-plan engine's dry-run
  /// mode so every layer prices a primitive identically.
  static constexpr std::uint64_t kResetToIdleTcks = 6;  ///< reset_to_idle
  static constexpr std::uint64_t kIrScanOverhead = 6;   ///< scan_ir: bits+6
  static constexpr std::uint64_t kDrScanOverhead = 5;   ///< scan_dr: bits+5
  static constexpr std::uint64_t kUpdatePulseTcks = 5;  ///< pulse_update_dr

  /// Five TMS=1 clocks: guaranteed Test-Logic-Reset from any state, then
  /// one TMS=0 clock into Run-Test/Idle.
  void reset_to_idle();

  /// Navigate to `target` along the shortest TMS path (register actions on
  /// the way execute as the hardware would).
  void goto_state(TapState target);

  /// Full IR scan: shift `bits` (LSB first = nearest TDO end of the IR),
  /// return the bits shifted out. Takes bits.size() + 6 TCKs.
  util::BitVec scan_ir(const util::BitVec& bits);

  /// Full DR scan: shift `bits`, return the outgoing bits.
  /// Takes bits.size() + 5 TCKs.
  util::BitVec scan_dr(const util::BitVec& bits);

  /// DR scan that parks in Pause-DR every `pause_every` bits for
  /// `pause_clocks` TCKs before resuming through Exit2-DR — the flow an
  /// ATE uses to refill its vector buffers mid-scan. Scan semantics are
  /// identical to `scan_dr`; only the TCK count grows.
  util::BitVec scan_dr_paused(const util::BitVec& bits,
                              std::size_t pause_every,
                              std::size_t pause_clocks = 1);

  /// Select-DR -> Capture-DR -> Exit1-DR -> Update-DR -> RTI without any
  /// shifting: the "apply one Update-DR" primitive of the paper's pattern
  /// generation loop (5 TCKs).
  void pulse_update_dr();

  /// Spend `n` TCKs in Run-Test/Idle.
  void run_idle(std::size_t n);

  /// Total TCK edges issued by this master.
  std::uint64_t tck() const { return tck_; }

  /// Reset the TCK counter (e.g. to meter one phase of a session).
  void reset_tck_counter() { tck_ = 0; }

  /// Mirrored controller state (all devices move in lockstep on TMS).
  TapState state() const { return state_; }

  /// Attach an observability sink; every TCK edge is reported as a
  /// StateEdge event (acting state, TMS, TDI) *before* the port ticks,
  /// so events raised inside the device inherit this edge's TCK stamp.
  /// A scan body's edges are reported as one obs::Sink::on_shift_run
  /// burst before the port shifts it, which gives the same stream
  /// because nothing in a device emits while it shifts. The fixed edge
  /// runs around a scan body, an Update-DR pulse's five edges and a
  /// reset from Run-Test/Idle or Test-Logic-Reset each go as one
  /// obs::Sink::on_edges run before their ticks, likewise, since only a
  /// run's last tick can make a device emit. nullptr (the default)
  /// disables emission — one branch per edge, run or burst.
  void set_sink(obs::Sink* sink) { sink_ = sink; }

 private:
  util::Logic clock(bool tms, bool tdi = false);
  /// Clock `n` edges from a table of their StateEdge records (TMS in
  /// `a`, TDI in `b`), reported to the sink first as one on_edges run.
  void clock_run(const obs::Event* edges, std::size_t n);
  /// The body of a scan, from Shift-DR or Shift-IR into Exit1: one edge
  /// per bit of `bits`, TMS=1 on the last, handed to the port as one
  /// TapPort::shift_run burst and to the sink as one on_shift_run call.
  /// Counts the edges as clock() would; returns the TDO bits.
  util::BitVec shift_body(const util::BitVec& bits);
  void require_idle(const char* op) const;

  TapPort* port_;
  TapState state_ = TapState::TestLogicReset;
  std::uint64_t tck_ = 0;
  obs::Sink* sink_ = nullptr;
};

}  // namespace jsi::jtag

#endif  // JSI_JTAG_MASTER_HPP

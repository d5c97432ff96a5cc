#include "core/bist.hpp"

#include <cmath>
#include <stdexcept>

#include "jtag/tap_trace.hpp"

namespace jsi::core {

using util::BitVec;

void BistProgram::step(bool tms, bool tdi, int capture_wire,
                       bool capture_is_nd) {
  steps_.push_back(Step{tms, tdi, capture_wire, capture_is_nd});
}

void BistProgram::reset_to_idle() {
  for (int i = 0; i < 5; ++i) step(true, false);
  step(false, false);
}

void BistProgram::scan_ir(const BitVec& bits) {
  step(true, false);   // -> Select-DR-Scan
  step(true, false);   // -> Select-IR-Scan
  step(false, false);  // -> Capture-IR
  step(false, false);  // capture; -> Shift-IR
  for (std::size_t i = 0; i < bits.size(); ++i) {
    step(i + 1 == bits.size(), bits[i]);
  }
  step(true, false);   // Exit1 -> Update-IR
  step(false, false);  // update; -> RTI
}

void BistProgram::scan_dr(const BitVec& bits) {
  step(true, false);
  step(false, false);
  step(false, false);  // capture; -> Shift-DR
  for (std::size_t i = 0; i < bits.size(); ++i) {
    step(i + 1 == bits.size(), bits[i]);
  }
  step(true, false);
  step(false, false);
}

void BistProgram::scan_dr_capture(std::size_t len, std::size_t n,
                                  std::size_t m, bool is_nd) {
  step(true, false);
  step(false, false);
  step(false, false);
  for (std::size_t i = 0; i < len; ++i) {
    // Shift-out bit i carries OBSC wire n+m-1-i (the index rule of
    // TestPlan::obsc_scan_index); mark those steps for compaction.
    int wire = -1;
    if (i >= m && i <= n + m - 1) {
      wire = static_cast<int>(n + m - 1 - i);
    }
    step(i + 1 == len, false, wire, is_nd);
  }
  step(true, false);
  step(false, false);
}

void BistProgram::pulse_update_dr() {
  step(true, false);
  step(false, false);
  step(true, false);
  step(true, false);
  step(false, false);
}

BistProgram BistProgram::compile(const SocConfig& cfg) {
  BistProgram p;
  const std::size_t n = cfg.n_wires;
  const std::size_t m = cfg.m_extra_cells;
  const std::size_t len = 2 * n + m;
  const std::size_t w = cfg.ir_width;

  p.reset_to_idle();
  for (int block = 0; block < 2; ++block) {
    p.scan_ir(BitVec::from_u64(0b0001, w));  // SAMPLE/PRELOAD
    p.scan_dr(BitVec(len, block != 0));      // initial value
    p.scan_ir(BitVec::from_u64(0b1000, w));  // G-SITEST
    p.scan_dr(BitVec::one_hot(n, n - 1));    // victim select
    for (std::size_t v = 0; v < n; ++v) {
      for (int i = 0; i < 3; ++i) p.pulse_update_dr();
      p.scan_dr(BitVec(1, false));  // rotate
    }
  }
  p.scan_ir(BitVec::from_u64(0b1001, w));  // O-SITEST
  p.scan_dr_capture(len, n, m, /*is_nd=*/true);
  p.scan_dr_capture(len, n, m, /*is_nd=*/false);
  return p;
}

double BistProgram::controller_nand_equiv() const {
  // ROM: ~0.25 NE per bit (dense NAND-ROM); program counter: one DFF per
  // address bit plus increment logic; capture-window comparators ~ 40 NE.
  const double rom = 0.25 * static_cast<double>(rom_bits());
  const double pc_bits =
      std::ceil(std::log2(static_cast<double>(steps_.size()) + 1.0));
  const double pc = pc_bits * (6.0 + 2.5);
  return rom + pc + 40.0;
}

SiBistController::SiBistController(SiSocDevice& soc) : soc_(&soc) {
  if (soc.config().n_buses != 1) {
    throw std::invalid_argument(
        "SiBistController's program tests a one-bus device");
  }
  program_ = BistProgram::compile(soc.config());
}

void SiBistController::set_sink(obs::Sink* sink) {
  sink_ = sink;
  soc_->set_sink(sink);
}

SiBistController::Result SiBistController::run() {
  const std::size_t n = soc_->config().n_wires;
  Result r;
  r.nd = BitVec(n, false);
  r.sd = BitVec(n, false);
  obs::emit_span(sink_, obs::EventKind::SessionBegin, "bist",
                 soc_->tap().tck_count());
  // FSM mirror for edge tracing. The program opens with five TMS=1
  // clocks, so starting the mirror at Test-Logic-Reset is correct by the
  // time any state-sensitive edge fires, whatever state the TAP was in.
  jtag::TapState mirror = jtag::TapState::TestLogicReset;
  for (const auto& s : program_.steps()) {
    if (sink_) {
      sink_->on_event(jtag::tap_edge_event(mirror, s.tms, s.tdi,
                                           soc_->tap().tck_count() + 1));
    }
    const util::Logic tdo = soc_->tap().tick(s.tms, s.tdi);
    mirror = jtag::next_state(mirror, s.tms);
    if (s.capture_wire >= 0 && util::to_bool(tdo)) {
      if (s.capture_is_nd) {
        r.nd.set(static_cast<std::size_t>(s.capture_wire), true);
      } else {
        r.sd.set(static_cast<std::size_t>(s.capture_wire), true);
      }
    }
    ++r.tcks;
  }
  r.pass = r.nd.popcount() + r.sd.popcount() == 0;
  obs::emit_span(sink_, obs::EventKind::SessionEnd, "bist",
                 soc_->tap().tck_count(), r.tcks);
  return r;
}

}  // namespace jsi::core

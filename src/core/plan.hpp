#ifndef JSI_CORE_PLAN_HPP
#define JSI_CORE_PLAN_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "util/bitvec.hpp"

namespace jsi::core {

/// One TAP-level operation of a test plan — the IR the session planners
/// emit and the TestPlanEngine executes. A plan is a pure description of
/// the protocol a test drives (paper Figs 8/12): it references no SoC
/// model, so the same plan can be executed live against a simulator or
/// walked in dry-run mode for its exact clock budget.
enum class TapOpKind {
  Reset,     ///< TMS reset + entry into Run-Test/Idle
  LoadIr,    ///< IR scan of the named instruction's opcode
  ScanIr,    ///< IR scan of raw bits (multi-device chains)
  ScanDr,    ///< DR scan of an explicit payload
  UpdateDr,  ///< bare Capture->Update pass, no shifting
  Readout,   ///< O-SITEST flag read-out: IR load + ND pass + SD pass
             ///< (+ optional G-SITEST reload to resume generation)
};

/// Stable op-kind label used by trace and metrics records ("Reset",
/// "LoadIr", ...). Static-lifetime, never nullptr. Inline: every traced
/// op reads it for two records.
constexpr const char* tap_op_kind_name(TapOpKind k) {
  switch (k) {
    case TapOpKind::Reset: return "Reset";
    case TapOpKind::LoadIr: return "LoadIr";
    case TapOpKind::ScanIr: return "ScanIr";
    case TapOpKind::ScanDr: return "ScanDr";
    case TapOpKind::UpdateDr: return "UpdateDr";
    case TapOpKind::Readout: return "Readout";
  }
  return "?";
}

struct TapOp {
  /// Sentinel victim index meaning "no victim selected" for a bus of any
  /// width (sessions use `victim == n` in recorded patterns; `kNoVictim`
  /// is width-independent and normalized by the engine).
  static constexpr std::size_t kNoVictim = static_cast<std::size_t>(-1);

  TapOpKind kind = TapOpKind::UpdateDr;

  std::string ir;   ///< LoadIr: instruction name (resolved via the target)
  util::BitVec bits;  ///< ScanIr/ScanDr: payload, LSB scanned first

  /// ScanDr/UpdateDr: snapshot the driven bus state around the op and
  /// append an AppliedPattern (per bus) with the annotations below.
  bool record = false;
  std::size_t victim = kNoVictim;  ///< selected victim (kNoVictim = none)
  int block = 0;                   ///< initial-value block annotation
  bool rotate = false;             ///< op is a victim-rotate scan

  /// ScanDr: keep the scanned-out bits in EngineResult::captures.
  bool capture = false;

  /// Readout: victim-select one-hot restored by the SD pass so generation
  /// can resume exactly where it stopped (kNoVictim = scan zeros).
  std::size_t restore_victim = kNoVictim;
  /// Readout: reload G-SITEST afterwards (resume pattern generation).
  bool resume_gen = false;
};

/// A complete test plan: chain geometry plus the op sequence. Geometry is
/// carried so the dry-run cost walk and the read-out bit extraction need
/// no SoC model. The boundary-register convention is the one every SoC in
/// this repo uses: all sending cells first (n_buses blocks of
/// wires_per_bus PGBSCs), then all OBSC blocks, then extra cells.
struct TestPlan {
  std::size_t ir_width = 4;      ///< IR bits of the (single-device) chain
  std::size_t chain_length = 0;  ///< boundary-register length in cells
  std::size_t n_buses = 1;
  std::size_t wires_per_bus = 0;
  ObservationMethod method = ObservationMethod::OnceAtEnd;
  std::vector<TapOp> ops;

  /// Scan-out index of the OBSC of (`bus`, `wire`) in a full-chain DR scan.
  std::size_t obsc_scan_index(std::size_t bus, std::size_t wire) const;
};

/// Exact TCK budget of a plan, computed without touching any simulator —
/// the dry-run cost mode. `generation + observation == total`, matching
/// the live engine's accounting (Readout ops are observation; everything
/// else, the TMS reset included, is generation).
struct PlanCost {
  std::uint64_t total_tcks = 0;
  std::uint64_t generation_tcks = 0;
  std::uint64_t observation_tcks = 0;
  std::size_t dr_scans = 0;
  std::size_t update_pulses = 0;
  std::size_t ir_loads = 0;
  std::size_t readouts = 0;
  std::size_t recorded_patterns = 0;  ///< per bus
};

PlanCost dry_run_cost(const TestPlan& plan);

// ---------------------------------------------------------------------------
// Planners: each emits the exact op sequence the corresponding session
// drove before the engine refactor (parity-tested against golden reports).
// ---------------------------------------------------------------------------

/// Enhanced-architecture flow (paper Fig 12): two initial-value blocks of
/// SAMPLE preload + G-SITEST + victim-select scan + per-victim
/// 3-updates-and-rotate, with method-dependent O-SITEST read-outs.
TestPlan plan_enhanced_session(std::size_t n, std::size_t m,
                               std::size_t ir_width,
                               ObservationMethod method);

/// Parallel multi-victim extension: multi-hot select, `guard` rounds per
/// block instead of n victims. Methods 1 and 2 only.
TestPlan plan_parallel_victims(std::size_t n, std::size_t m,
                               std::size_t ir_width, ObservationMethod method,
                               std::size_t guard);

/// Conventional-BSA baseline (paper §3.1): every MA vector scanned through
/// the full chain. Method 2 degenerates to one read-out per victim.
TestPlan plan_conventional_session(std::size_t n, std::size_t m,
                                   std::size_t ir_width,
                                   ObservationMethod method);

/// Parallel multi-bus flow: one hot bit per bus block in the select scan,
/// shared rotate loop, one read-out pair covering every OBSC. Methods 1
/// and 2 only.
TestPlan plan_multibus_session(std::size_t buses, std::size_t wires_per_bus,
                               std::size_t m, std::size_t ir_width,
                               ObservationMethod method);

}  // namespace jsi::core

#endif  // JSI_CORE_PLAN_HPP

#ifndef JSI_CORE_BIST_HPP
#define JSI_CORE_BIST_HPP

#include <cstdint>
#include <vector>

#include "core/soc.hpp"
#include "obs/events.hpp"
#include "util/bitvec.hpp"

namespace jsi::core {

/// Microcoded TMS/TDI program for an autonomous on-chip BIST controller.
///
/// The paper runs its test from an ATE; its cited BIST line of work
/// ([Nourani & Attarha, DAC'01]) moves the session on chip. We model the
/// controller the way silicon would implement it: a ROM holding one
/// (TMS, TDI, capture-ND, capture-SD) micro-op per TCK plus a program
/// counter — `compile()` emits the exact Fig-12 method-1 session for a
/// given SoC configuration, and `rom_bits()` is the storage cost a
/// synthesis flow would pay.
class BistProgram {
 public:
  struct Step {
    bool tms = false;
    bool tdi = false;
    /// During the read-out shifts: which sensor's bit leaves TDO on this
    /// TCK and which wire it belongs to (-1 = not a capture step).
    int capture_wire = -1;
    bool capture_is_nd = false;
  };

  /// Build the method-1 session program for `cfg` (reset, two preload +
  /// generate blocks, one ND+SD read-out).
  static BistProgram compile(const SocConfig& cfg);

  const std::vector<Step>& steps() const { return steps_; }
  std::size_t length() const { return steps_.size(); }

  /// ROM cost: 2 payload bits per step (TMS, TDI); the capture markers
  /// are decoded from the program counter by comparators in practice.
  std::size_t rom_bits() const { return 2 * steps_.size(); }

  /// Rough controller area: ROM (0.25 NE/bit) + PC + compare logic.
  double controller_nand_equiv() const;

 private:
  friend class SiBistController;
  // Builder primitives mirroring TapMaster's protocol sequences.
  void reset_to_idle();
  void scan_ir(const util::BitVec& bits);
  void scan_dr(const util::BitVec& bits);
  void scan_dr_capture(std::size_t len, std::size_t n, std::size_t m,
                       bool is_nd);
  void pulse_update_dr();
  void step(bool tms, bool tdi, int capture_wire = -1,
            bool capture_is_nd = false);

  std::vector<Step> steps_;
};

/// Replays a BistProgram against the SoC's TAP and compacts the captured
/// sensor bits into the BIST status word — the on-chip controller's
/// behaviour, cycle for cycle.
class SiBistController {
 public:
  struct Result {
    bool pass = true;             ///< no sensor flag set
    util::BitVec nd;              ///< per-wire noise syndrome
    util::BitVec sd;              ///< per-wire skew syndrome
    std::uint64_t tcks = 0;       ///< program length executed
  };

  /// A controller for a one-bus `soc` (throws std::invalid_argument on
  /// more buses).
  explicit SiBistController(SiSocDevice& soc);

  /// Run the whole autonomous session.
  Result run();

  const BistProgram& program() const { return program_; }

  /// Attach an observability sink to the controller and the SoC model
  /// (session name "bist"). The controller drives the TAP directly, so
  /// it mirrors the FSM itself to report the same StateEdge records a
  /// TapMaster would. nullptr detaches.
  void set_sink(obs::Sink* sink);

 private:
  SiSocDevice* soc_;
  BistProgram program_;
  obs::Sink* sink_ = nullptr;
};

}  // namespace jsi::core

#endif  // JSI_CORE_BIST_HPP

#ifndef JSI_JTAG_DEVICE_HPP
#define JSI_JTAG_DEVICE_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "jtag/registers.hpp"
#include "jtag/tap_state.hpp"
#include "util/bitvec.hpp"
#include "util/logic.hpp"

namespace jsi::jtag {

/// Anything a TapMaster can clock: a single device or a whole chain.
class TapPort {
 public:
  virtual ~TapPort() = default;

  /// One rising TCK edge: act on the current state, then move to the next
  /// one. Returns TDO (Z outside shift states, per 1149.1 §6).
  virtual util::Logic tick(bool tms, bool tdi) = 0;

  /// `tdi.size()` edges with TMS=0 and TMS=1 on the last: a scan body
  /// when entered in Shift-DR or Shift-IR, left in Exit1. Returns each
  /// edge's TDO. The default is one tick() per edge, so it is exact from
  /// any state.
  virtual util::BitVec shift_run(const util::BitVec& tdi);

  /// Asynchronous TRST*: force Test-Logic-Reset immediately.
  virtual void async_reset() = 0;

  /// Total TCK rising edges applied.
  virtual std::uint64_t tck_count() const = 0;
};

/// An IEEE 1149.1 test-logic instance: TAP controller + instruction
/// register + selectable data registers.
///
/// Cycle-level model: register actions (capture/shift/update) execute on
/// the TCK edge whose *starting* state mandates them, which reproduces the
/// standard's observable behaviour (L TCKs in Shift-DR shift L bits, the
/// exit edge included; Update fires once on the edge leaving Update-DR).
///
/// The mandatory BYPASS register/instruction (all-ones opcode) is built in.
/// Devices are configured by `add_data_register` + `add_instruction`;
/// design-specific semantics (the paper's G-SITEST/O-SITEST) hook in via
/// the listener callbacks.
class TapDevice : public TapPort {
 public:
  /// `ir_width` is the instruction-register length in bits (>= 2 per the
  /// standard, which also fixes the Capture-IR pattern to ...01).
  TapDevice(std::string name, std::size_t ir_width);

  const std::string& name() const { return name_; }
  std::size_t ir_width() const { return ir_width_; }

  // ---- configuration -------------------------------------------------------

  /// Register a data register under `reg_name`.
  void add_data_register(const std::string& reg_name,
                         std::shared_ptr<DataRegister> dr);

  /// Map instruction `code` (low ir_width bits) to `inst_name`, selecting
  /// data register `reg_name` between TDI and TDO.
  void add_instruction(const std::string& inst_name, std::uint64_t code,
                       const std::string& reg_name);

  /// Convenience: create an IDCODE register + instruction (code
  /// `idcode_opcode`), making IDCODE the reset-time instruction.
  void add_idcode(std::uint32_t idcode, std::uint64_t idcode_opcode);

  /// Fired after every Update-IR with the decoded instruction name (also
  /// when the instruction is re-loaded unchanged).
  void on_instruction(std::function<void(const std::string&)> f) {
    instruction_listener_ = std::move(f);
  }

  /// Fired after every Update-DR (after the selected register updated).
  void on_update_dr(std::function<void()> f) {
    update_dr_listener_ = std::move(f);
  }

  /// Fired on entry to Test-Logic-Reset (TMS or TRST*).
  void on_reset(std::function<void()> f) { reset_listener_ = std::move(f); }

  // ---- runtime --------------------------------------------------------------

  util::Logic tick(bool tms, bool tdi) override;
  /// In Shift-DR the selected register shifts the whole body in one
  /// `shift_run` call; every other state takes the per-edge default.
  util::BitVec shift_run(const util::BitVec& tdi) override;
  void async_reset() override;
  std::uint64_t tck_count() const override { return tck_; }

  TapState state() const { return state_; }
  const std::string& current_instruction() const { return current_inst_; }

  /// Opcode registered for `inst_name`; throws std::out_of_range if unknown.
  std::uint64_t opcode(const std::string& inst_name) const;

  /// Access a configured data register by name.
  DataRegister& data_register(const std::string& reg_name);

  /// The data register the current instruction places between TDI and
  /// TDO. Resolved once whenever the instruction changes, so a TCK edge
  /// does no lookup.
  DataRegister& selected() { return *selected_; }

 private:
  void enter_test_logic_reset();
  /// Make `inst_name` current and resolve its data register.
  void select(const std::string& inst_name);
  std::string decode(std::uint64_t code) const;

  std::string name_;
  std::size_t ir_width_;
  TapState state_ = TapState::TestLogicReset;
  std::uint64_t tck_ = 0;

  std::uint64_t ir_shift_ = 0;
  std::string current_inst_;
  std::string reset_inst_ = "BYPASS";
  DataRegister* selected_ = nullptr;

  std::map<std::string, std::shared_ptr<DataRegister>> registers_;
  struct InstDef {
    std::uint64_t code;
    std::string reg;
  };
  std::map<std::string, InstDef> instructions_;  // name -> def
  std::map<std::uint64_t, std::string> by_code_;

  std::function<void(const std::string&)> instruction_listener_;
  std::function<void()> update_dr_listener_;
  std::function<void()> reset_listener_;
};

}  // namespace jsi::jtag

#endif  // JSI_JTAG_DEVICE_HPP

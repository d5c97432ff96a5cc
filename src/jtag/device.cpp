#include "jtag/device.hpp"

#include <stdexcept>

namespace jsi::jtag {

using util::Logic;

util::BitVec TapPort::shift_run(const util::BitVec& tdi) {
  util::BitVec tdo(tdi.size(), false);
  for (std::size_t i = 0; i < tdi.size(); ++i) {
    tdo.set(i, util::to_bool(tick(i + 1 == tdi.size(), tdi[i])));
  }
  return tdo;
}

TapDevice::TapDevice(std::string name, std::size_t ir_width)
    : name_(std::move(name)), ir_width_(ir_width) {
  if (ir_width_ < 2) throw std::invalid_argument("IR width must be >= 2");
  if (ir_width_ > 64) throw std::invalid_argument("IR width must be <= 64");
  add_data_register("BYPASS", std::make_shared<BypassRegister>());
  const std::uint64_t all_ones =
      ir_width_ == 64 ? ~0ull : (1ull << ir_width_) - 1;
  add_instruction("BYPASS", all_ones, "BYPASS");
  enter_test_logic_reset();
}

void TapDevice::add_data_register(const std::string& reg_name,
                                  std::shared_ptr<DataRegister> dr) {
  if (!dr) throw std::invalid_argument("null data register");
  registers_[reg_name] = std::move(dr);
  const auto cur = instructions_.find(current_inst_);
  if (cur != instructions_.end() && cur->second.reg == reg_name) {
    select(current_inst_);  // the register it replaced is gone
  }
}

void TapDevice::add_instruction(const std::string& inst_name,
                                std::uint64_t code,
                                const std::string& reg_name) {
  if (!registers_.count(reg_name)) {
    throw std::invalid_argument("unknown data register: " + reg_name);
  }
  const std::uint64_t mask =
      ir_width_ == 64 ? ~0ull : (1ull << ir_width_) - 1;
  if ((code & ~mask) != 0) {
    throw std::invalid_argument("opcode wider than IR: " + inst_name);
  }
  if (by_code_.count(code)) {
    throw std::invalid_argument("duplicate opcode for " + inst_name);
  }
  instructions_[inst_name] = InstDef{code, reg_name};
  by_code_[code] = inst_name;
  if (inst_name == current_inst_) select(inst_name);
}

void TapDevice::add_idcode(std::uint32_t idcode, std::uint64_t idcode_opcode) {
  add_data_register("IDCODE", std::make_shared<IdcodeRegister>(idcode));
  add_instruction("IDCODE", idcode_opcode, "IDCODE");
  reset_inst_ = "IDCODE";
  if (state_ == TapState::TestLogicReset) select(reset_inst_);
}

std::uint64_t TapDevice::opcode(const std::string& inst_name) const {
  return instructions_.at(inst_name).code;
}

DataRegister& TapDevice::data_register(const std::string& reg_name) {
  return *registers_.at(reg_name);
}

void TapDevice::select(const std::string& inst_name) {
  selected_ = registers_.at(instructions_.at(inst_name).reg).get();
  current_inst_ = inst_name;
}

std::string TapDevice::decode(std::uint64_t code) const {
  const auto it = by_code_.find(code);
  // Unused opcodes select BYPASS per 1149.1 §8.4.
  return it == by_code_.end() ? std::string("BYPASS") : it->second;
}

void TapDevice::enter_test_logic_reset() {
  if (current_inst_ != reset_inst_) select(reset_inst_);
  for (auto& [name, reg] : registers_) reg->reset();
  if (reset_listener_) reset_listener_();
}

void TapDevice::async_reset() {
  state_ = TapState::TestLogicReset;
  enter_test_logic_reset();
}

Logic TapDevice::tick(bool tms, bool tdi) {
  ++tck_;
  Logic tdo = Logic::Z;
  switch (state_) {
    case TapState::TestLogicReset:
      // The standard holds the test logic reset for as long as the
      // controller sits in this state, not only on entry.
      enter_test_logic_reset();
      break;
    case TapState::CaptureDr:
      selected().capture();
      break;
    case TapState::ShiftDr:
      tdo = util::to_logic(selected().shift(tdi));
      break;
    case TapState::UpdateDr:
      selected().update();
      if (update_dr_listener_) update_dr_listener_();
      break;
    case TapState::CaptureIr:
      ir_shift_ = 0b01;  // fixed capture pattern, LSBs = 01
      break;
    case TapState::ShiftIr: {
      const bool out = (ir_shift_ & 1u) != 0;
      ir_shift_ >>= 1;
      if (tdi) ir_shift_ |= 1ull << (ir_width_ - 1);
      tdo = util::to_logic(out);
      break;
    }
    case TapState::UpdateIr:
      select(decode(ir_shift_));
      if (instruction_listener_) instruction_listener_(current_inst_);
      break;
    default:
      break;
  }
  const TapState prev = state_;
  state_ = next_state(state_, tms);
  if (state_ == TapState::TestLogicReset &&
      prev != TapState::TestLogicReset) {
    enter_test_logic_reset();
  }
  return tdo;
}

util::BitVec TapDevice::shift_run(const util::BitVec& tdi) {
  if (state_ != TapState::ShiftDr || tdi.empty()) {
    return TapPort::shift_run(tdi);
  }
  util::BitVec tdo(tdi.size(), false);
  selected().shift_run(tdi, tdo);
  tck_ += tdi.size();
  state_ = TapState::Exit1Dr;
  return tdo;
}

}  // namespace jsi::jtag

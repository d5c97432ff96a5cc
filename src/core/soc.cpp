#include "core/soc.hpp"

#include <stdexcept>

#include "si/model.hpp"

namespace jsi::core {

using util::BitVec;
using util::Logic;

si::BusParams effective_bus_params(const SocConfig& cfg) {
  si::BusParams bp = cfg.bus;
  bp.n_wires = cfg.n_wires;
  return bp;
}

void receive_transition(const si::CoupledBus& bus,
                        const si::TransitionBatch& batch,
                        const std::vector<bsc::Obsc*>& obscs,
                        const jtag::CellCtl& ctl, bool observe) {
  for (std::size_t i = 0; i < batch.n_wires;) {
    const si::WireEntry& w = batch.entry(i);
    std::size_t end = i + 1;
    if (w.slot != nullptr) {
      while (end < batch.n_wires && batch.slot(end) == w.slot) ++end;
    }
    si::Verdicts v;
    if (observe) v = bus.judge(obscs[i]->nd(), obscs[i]->sd(), w);
    const Logic settled = bus.settled_logic(w.final_sample);
    for (; i < end; ++i) {
      if (observe) obscs[i]->latch(v, ctl);
      obscs[i]->set_parallel_in(settled);
    }
  }
}

SiSocDevice::SiSocDevice(SocConfig cfg)
    : SiSocDevice(std::move(cfg), static_cast<si::CoupledBus*>(nullptr)) {}

SiSocDevice::SiSocDevice(SocConfig cfg, si::CoupledBus& bus)
    : SiSocDevice(std::move(cfg), &bus) {}

SiSocDevice::SiSocDevice(SocConfig cfg, si::CoupledBus* external)
    : cfg_(std::move(cfg)), pins_(cfg_.n_wires, false) {
  if (cfg_.n_wires < 2) throw std::invalid_argument("need >= 2 interconnects");
  if (external != nullptr) {
    si::require_width(*external, cfg_.n_wires);
    bus_ = external;
    // Keep config() truthful: the electrical parameters in force are the
    // external bus's, not whatever cfg.bus carried.
    cfg_.bus = external->params();
  } else {
    owned_bus_ = std::make_unique<si::CoupledBus>(effective_bus_params(cfg_));
    bus_ = owned_bus_.get();
  }
  // Detector supplies follow the swing the cells observe on the wire —
  // the full bus supply for rc_full_swing, the reduced swing for
  // low_swing — so threshold fractions track the actual waveform range.
  const double observed =
      si::model_for(cfg_.bus.model).observed_swing(cfg_.bus);
  cfg_.nd.vdd = observed;
  cfg_.sd.vdd = observed;

  tap_ = std::make_unique<jtag::TapDevice>("si_soc", cfg_.ir_width);
  tap_->add_idcode(cfg_.idcode, 0b0010);

  auto boundary = std::make_shared<jtag::BoundaryRegister>(
      [this] { return ctl_; });
  boundary_ = boundary.get();

  for (std::size_t i = 0; i < cfg_.n_wires; ++i) {
    if (cfg_.enhanced) {
      auto cell = std::make_unique<bsc::Pgbsc>();
      pgbscs_.push_back(cell.get());
      boundary_->add_cell(std::move(cell));
    } else {
      auto cell = std::make_unique<bsc::StandardBsc>();
      sending_std_.push_back(cell.get());
      boundary_->add_cell(std::move(cell));
    }
  }
  for (std::size_t i = 0; i < cfg_.n_wires; ++i) {
    auto cell = std::make_unique<bsc::Obsc>(cfg_.nd, cfg_.sd);
    obscs_.push_back(cell.get());
    boundary_->add_cell(std::move(cell));
  }
  for (std::size_t i = 0; i < cfg_.m_extra_cells; ++i) {
    boundary_->add_cell(std::make_unique<bsc::StandardBsc>());
  }

  tap_->add_data_register("BOUNDARY", boundary);
  tap_->add_instruction(kExtest, 0b0000, "BOUNDARY");
  tap_->add_instruction(kSample, 0b0001, "BOUNDARY");
  tap_->add_instruction(kGSitest, 0b1000, "BOUNDARY");
  tap_->add_instruction(kOSitest, 0b1001, "BOUNDARY");
  // CLAMP and HIGHZ select BYPASS between TDI and TDO (1149.1 §8.8/8.9);
  // the boundary keeps (or releases) the pins per the decode below.
  tap_->add_instruction(kClamp, 0b0100, "BYPASS");
  tap_->add_instruction(kHighz, 0b0101, "BYPASS");

  tap_->on_instruction([this](const std::string& name) {
    decode_instruction(name);
  });
  tap_->on_update_dr([this] { on_update_dr(); });
  tap_->on_reset([this] {
    ctl_ = jtag::CellCtl{};
    pins_valid_ = false;
    bus_transitions_ = 0;
    apply_bus(/*observe=*/false);
  });

  core_out_.assign(cfg_.n_wires, Logic::L0);
  for (std::size_t i = 0; i < cfg_.n_wires; ++i) {
    boundary_->cell(i).set_parallel_in(Logic::L0);
  }
  decode_instruction(tap_->current_instruction());
}

std::size_t SiSocDevice::chain_length() const {
  return 2 * cfg_.n_wires + cfg_.m_extra_cells;
}

void SiSocDevice::set_sink(obs::Sink* sink) {
  sink_ = sink;
  bus_->set_sink(sink);
  for (std::size_t i = 0; i < obscs_.size(); ++i) {
    obscs_[i]->set_sink(sink, static_cast<std::int64_t>(i));
  }
}

bsc::Pgbsc& SiSocDevice::pgbsc(std::size_t i) {
  if (!cfg_.enhanced) throw std::logic_error("conventional SoC has no PGBSC");
  return *pgbscs_.at(i);
}

bsc::Obsc& SiSocDevice::obsc(std::size_t i) { return *obscs_.at(i); }

void SiSocDevice::set_core_output(std::size_t i, Logic v) {
  core_out_.at(i) = v;
  boundary_->cell(i).set_parallel_in(v);
  apply_bus(/*observe=*/ctl_.ce);
}

Logic SiSocDevice::core_input(std::size_t i) const {
  if (i >= cfg_.n_wires) throw std::out_of_range("bad wire");
  return boundary_->cell(cfg_.n_wires + i).parallel_out(ctl_);
}

BitVec SiSocDevice::nd_flags() const {
  BitVec v(cfg_.n_wires, false);
  for (std::size_t i = 0; i < cfg_.n_wires; ++i) {
    v.set(i, obscs_[i]->nd().flag());
  }
  return v;
}

BitVec SiSocDevice::sd_flags() const {
  BitVec v(cfg_.n_wires, false);
  for (std::size_t i = 0; i < cfg_.n_wires; ++i) {
    v.set(i, obscs_[i]->sd().flag());
  }
  return v;
}

bool SiSocDevice::boundary_selected() const {
  const std::string& inst = tap_->current_instruction();
  return inst == kExtest || inst == kSample || inst == kGSitest ||
         inst == kOSitest;
}

void SiSocDevice::decode_instruction(const std::string& name) {
  jtag::CellCtl c;
  highz_ = name == kHighz;
  if (name == kExtest || name == kClamp) {
    // CLAMP: pins stay driven from the update stages while the short
    // BYPASS path is selected for scanning.
    c = {.mode = true, .si = false, .ce = false, .gen = false, .nd_sd = true};
  } else if (name == kGSitest) {
    c = {.mode = true, .si = true, .ce = true, .gen = true, .nd_sd = true};
  } else if (name == kOSitest) {
    // ND/SD select initialized to ND for the first read-out pass.
    c = {.mode = true, .si = true, .ce = false, .gen = false, .nd_sd = true};
  } else {
    // SAMPLE/PRELOAD, IDCODE, BYPASS: functional pins.
    c = {.mode = false, .si = false, .ce = false, .gen = false, .nd_sd = true};
  }
  ctl_ = c;
  // Activating/deactivating a Mode instruction can retarget the pins
  // (functional values <-> update stage). This settling transition is not
  // part of the pattern set, so the sensors do not observe it (physically:
  // CE is asserted only after the pins are stable).
  apply_bus(/*observe=*/false);
}

void SiSocDevice::on_update_dr() {
  if (!boundary_selected()) return;
  if (tap_->current_instruction() == kOSitest) {
    // Complement ND/SD select so the next shift pass reads the other
    // sensor (paper §4.1, O-SITEST).
    ctl_.nd_sd = !ctl_.nd_sd;
  }
  apply_bus(/*observe=*/ctl_.ce);
}

void SiSocDevice::apply_bus(bool observe) {
  if (highz_) {
    // HIGHZ: all bus drivers float; the receivers see high impedance
    // until another instruction re-drives the wires.
    for (std::size_t i = 0; i < cfg_.n_wires; ++i) {
      obscs_[i]->set_parallel_in(Logic::Z);
    }
    pins_valid_ = false;
    return;
  }
  // Compute the vector the sending side currently drives.
  BitVec next(cfg_.n_wires, false);
  for (std::size_t i = 0; i < cfg_.n_wires; ++i) {
    next.set(i, util::to_bool(boundary_->cell(i).parallel_out(ctl_)));
  }
  if (pins_valid_ && next == pins_) return;

  if (!pins_valid_) {
    // First drive after reset: establish levels without a transition.
    pins_ = next;
    pins_valid_ = true;
    for (std::size_t i = 0; i < cfg_.n_wires; ++i) {
      obscs_[i]->set_parallel_in(util::to_logic(next[i]));
    }
    return;
  }

  const BitVec prev = pins_;
  pins_ = next;
  ++bus_transitions_;
  if (sink_) {
    obs::Event e;
    e.kind = obs::EventKind::BusTransition;
    e.tck = tap_->tck_count();
    e.name = "bus";
    e.a = 0;
    e.value = bus_transitions_;
    sink_->on_event(e);
  }
  // One batched store lookup for the whole bus: the sensors judge each
  // entry's recipe once per detector param set (its verdict slot
  // remembers the rest), and no waveform is rendered.
  receive_transition(*bus_, bus_->transition_batch(prev, next), obscs_, ctl_,
                     observe);
}

}  // namespace jsi::core

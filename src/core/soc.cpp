#include "core/soc.hpp"

#include <stdexcept>
#include <string>

#include "si/model.hpp"

namespace jsi::core {

using util::BitVec;
using util::Logic;

namespace {

void fire(obs::Sink& sink, const char* which, std::size_t wire,
          std::int64_t bus_id) {
  obs::Event e;
  e.kind = obs::EventKind::DetectorFired;
  e.name = which;
  e.a = static_cast<std::int64_t>(wire);
  e.b = bus_id;
  sink.on_event(e);
}

/// The receiving end of one bus transition, which `bus` served as
/// `batch`: the OBSCs of `cells` from `first` on, one per wire, take
/// their wire's settled logic (read from the entry's final sample) as
/// parallel input and, when `observe`, latch the wire's ND/SD verdicts
/// (CoupledBus::judge under the cells' sensor params) while CE is high.
/// Wires that share a verdict slot share a store entry — its recipe, so
/// also its samples and driven levels — so each run of such wires is
/// judged once, and its flags and levels are written as one range. A
/// newly set flag goes to `sink` as a DetectorFired record (a = wire,
/// b = `bus_id`), in wire order, ND before SD.
void receive_transition(const si::CoupledBus& bus,
                        const si::TransitionBatch& batch,
                        bsc::PlaneRegister& cells, std::size_t first,
                        bool observe, obs::Sink* sink, std::int64_t bus_id) {
  for (std::size_t i = 0; i < batch.n_wires;) {
    const si::WireEntry& w = batch.entry(i);
    std::size_t end = i + 1;
    if (w.slot != nullptr) {
      while (end < batch.n_wires && batch.slot(end) == w.slot) ++end;
    }
    const si::Verdicts v =
        observe ? bus.judge(cells.nd_sensor(), cells.sd_sensor(), w)
                : si::Verdicts{};
    if (v.nd || v.sd) {
      if (sink != nullptr && cells.controls().ce) {
        // The flags this run sets: new & ~old, wire by wire.
        for (std::size_t k = i; k < end; ++k) {
          if (v.nd && !cells.nd()[first + k]) fire(*sink, "ND", k, bus_id);
          if (v.sd && !cells.sd()[first + k]) fire(*sink, "SD", k, bus_id);
        }
      }
      cells.latch(first + i, end - i, v);
    }
    cells.set_parallel_in(first + i, end - i,
                          bus.settled_logic(w.final_sample));
    i = end;
  }
}

/// `cfg.n_buses` buses built from `cfg.bus`.
std::vector<si::CoupledBus> fresh_buses(const SocConfig& cfg) {
  std::vector<si::CoupledBus> buses;
  buses.reserve(cfg.n_buses);
  for (std::size_t b = 0; b < cfg.n_buses; ++b) {
    buses.emplace_back(effective_bus_params(cfg));
  }
  return buses;
}

}  // namespace

si::BusParams effective_bus_params(const SocConfig& cfg) {
  si::BusParams bp = cfg.bus;
  bp.n_wires = cfg.n_wires;
  return bp;
}

SiSocDevice::SiSocDevice(SocConfig cfg)
    : SiSocDevice(cfg, fresh_buses(cfg)) {}

SiSocDevice::SiSocDevice(SocConfig cfg, std::vector<si::CoupledBus> buses)
    : cfg_(std::move(cfg)), buses_(std::move(buses)) {
  if (cfg_.n_buses == 0) throw std::invalid_argument("need >= 1 bus");
  if (cfg_.n_wires < 2) throw std::invalid_argument("need >= 2 interconnects");
  if (buses_.size() != cfg_.n_buses) {
    throw std::invalid_argument("SiSocDevice: " +
                                std::to_string(buses_.size()) +
                                " buses handed in for n_buses " +
                                std::to_string(cfg_.n_buses));
  }
  for (const si::CoupledBus& bus : buses_) {
    si::require_width(bus, cfg_.n_wires);
  }
  // Keep config() truthful: the electrical parameters in force are the
  // buses', not whatever cfg.bus carried.
  cfg_.bus = buses_.front().params();
  // Detector supplies follow the swing the cells observe on the wire —
  // the full bus supply for rc_full_swing, the reduced swing for
  // low_swing — so threshold fractions track the actual waveform range.
  const double observed =
      si::model_for(cfg_.bus.model).observed_swing(cfg_.bus);
  cfg_.nd.vdd = observed;
  cfg_.sd.vdd = observed;

  pins_.assign(cfg_.n_buses, BitVec(cfg_.n_wires, false));
  next_pins_ = pins_;

  tap_ = std::make_unique<jtag::TapDevice>("si_soc", cfg_.ir_width);
  tap_->add_idcode(cfg_.idcode, 0b0010);

  const std::size_t wires = cfg_.n_buses * cfg_.n_wires;
  std::vector<bsc::CellKind> kinds(
      wires, cfg_.enhanced ? bsc::CellKind::Pgbsc : bsc::CellKind::Standard);
  kinds.insert(kinds.end(), wires, bsc::CellKind::Obsc);
  kinds.insert(kinds.end(), cfg_.m_extra_cells, bsc::CellKind::Standard);
  auto boundary =
      std::make_shared<bsc::PlaneRegister>(kinds, ctl_, cfg_.nd, cfg_.sd);
  boundary_ = boundary.get();
  boundary_->set_parallel_in(0, wires, Logic::L0);

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
    pins_valid_ = false;
    bus_transitions_ = 0;
    // Test-Logic-Reset makes the reset instruction current (1149.1 §6),
    // which ends CLAMP/HIGHZ and restores normal operation.
    decode_instruction(tap_->current_instruction());
  });

  decode_instruction(tap_->current_instruction());
}

std::size_t SiSocDevice::chain_length() const {
  return 2 * cfg_.n_buses * cfg_.n_wires + cfg_.m_extra_cells;
}

void SiSocDevice::set_sink(obs::Sink* sink) {
  sink_ = sink;
  for (si::CoupledBus& bus : buses_) bus.set_sink(sink);
}

void SiSocDevice::set_core_output(std::size_t i, Logic v) {
  if (i >= cfg_.n_buses * cfg_.n_wires) throw std::out_of_range("bad wire");
  boundary_->set_parallel_in(i, v);
  apply_bus(/*observe=*/ctl_.ce);
}

Logic SiSocDevice::core_input(std::size_t i) const {
  if (i >= cfg_.n_buses * cfg_.n_wires) throw std::out_of_range("bad wire");
  return boundary_->parallel_out(obsc_first() + i);
}

BitVec SiSocDevice::nd_flags(std::size_t b) const {
  if (b >= cfg_.n_buses) throw std::out_of_range("bad bus");
  return boundary_->nd().slice(obsc_first(b), cfg_.n_wires);
}

BitVec SiSocDevice::sd_flags(std::size_t b) const {
  if (b >= cfg_.n_buses) throw std::out_of_range("bad bus");
  return boundary_->sd().slice(obsc_first(b), cfg_.n_wires);
}

void SiSocDevice::decode_instruction(const std::string& name) {
  jtag::CellCtl c;
  highz_ = name == kHighz;
  ositest_ = name == kOSitest;
  scans_boundary_ = &tap_->selected() == boundary_;
  if (name == kExtest || name == kClamp) {
    // CLAMP: pins stay driven from the update stages while the short
    // BYPASS path is selected for scanning.
    c = {.mode = true, .si = false, .ce = false, .gen = false, .nd_sd = true};
  } else if (name == kGSitest) {
    c = {.mode = true, .si = true, .ce = true, .gen = true, .nd_sd = true};
  } else if (ositest_) {
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
  if (!scans_boundary_) return;
  if (ositest_) {
    // Complement ND/SD select so the next shift pass reads the other
    // sensor (paper §4.1, O-SITEST).
    ctl_.nd_sd = !ctl_.nd_sd;
  }
  apply_bus(/*observe=*/ctl_.ce);
}

void SiSocDevice::apply_bus(bool observe) {
  const std::size_t n = cfg_.n_wires;
  if (highz_) {
    // HIGHZ: every bus driver floats; the receivers see high impedance
    // until another instruction re-drives the wires.
    boundary_->set_parallel_in(obsc_first(), cfg_.n_buses * n, Logic::Z);
    pins_valid_ = false;
    return;
  }
  for (std::size_t b = 0; b < cfg_.n_buses; ++b) {
    // The vector bus b's sending cells currently drive.
    boundary_->parallel_out(b * n, next_pins_[b]);
    if (!pins_valid_) {
      // First drive after reset: establish levels without a transition.
      pins_[b] = next_pins_[b];
      boundary_->set_parallel_in(obsc_first(b), pins_[b]);
      continue;
    }
    if (next_pins_[b] == pins_[b]) continue;

    std::swap(pins_[b], next_pins_[b]);  // next_pins_[b]: the previous drive
    ++bus_transitions_;
    if (sink_) {
      obs::Event e;
      e.kind = obs::EventKind::BusTransition;
      e.tck = tap_->tck_count();
      e.name = "bus";
      e.a = static_cast<std::int64_t>(b);
      e.value = bus_transitions_;
      sink_->on_event(e);
    }
    // One batched store lookup for the whole bus: the sensors judge each
    // entry's recipe once per detector param set (its verdict slot
    // remembers the rest), and no waveform is rendered. A one-bus
    // device names no bus in its DetectorFired records.
    si::CoupledBus& bus = buses_[b];
    receive_transition(bus, bus.transition_batch(next_pins_[b], pins_[b]),
                       *boundary_, obsc_first(b), observe, sink_,
                       cfg_.n_buses == 1 ? -1 : static_cast<std::int64_t>(b));
  }
  pins_valid_ = true;
}

}  // namespace jsi::core

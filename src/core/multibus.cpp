#include "core/multibus.hpp"

#include <stdexcept>

#include "core/engine.hpp"
#include "core/soc.hpp"
#include "si/model.hpp"

namespace jsi::core {

using util::BitVec;
using util::Logic;

si::BusParams effective_bus_params(const MultiBusConfig& cfg) {
  si::BusParams bp = cfg.bus;
  bp.n_wires = cfg.wires_per_bus;
  return bp;
}

MultiBusSoc::MultiBusSoc(MultiBusConfig cfg)
    : MultiBusSoc(std::move(cfg), static_cast<const si::CoupledBus*>(nullptr)) {
}

MultiBusSoc::MultiBusSoc(MultiBusConfig cfg, const si::CoupledBus& prototype)
    : MultiBusSoc(std::move(cfg), &prototype) {}

MultiBusSoc::MultiBusSoc(MultiBusConfig cfg, const si::CoupledBus* prototype)
    : cfg_(std::move(cfg)) {
  if (cfg_.n_buses == 0) throw std::invalid_argument("need >= 1 bus");
  if (cfg_.wires_per_bus < 2) {
    throw std::invalid_argument("need >= 2 wires per bus");
  }
  if (prototype != nullptr) {
    si::require_width(*prototype, cfg_.wires_per_bus);
    cfg_.bus = prototype->params();
  }
  // Detector supplies follow the swing the cells observe (see SiSocDevice).
  const double observed =
      si::model_for(cfg_.bus.model).observed_swing(cfg_.bus);
  cfg_.nd.vdd = observed;
  cfg_.sd.vdd = observed;

  for (std::size_t b = 0; b < cfg_.n_buses; ++b) {
    if (prototype != nullptr) {
      buses_.push_back(std::make_unique<si::CoupledBus>(prototype->clone()));
    } else {
      buses_.push_back(
          std::make_unique<si::CoupledBus>(effective_bus_params(cfg_)));
    }
    pins_.emplace_back(cfg_.wires_per_bus, false);
    next_pins_.emplace_back(cfg_.wires_per_bus, false);
  }

  tap_ = std::make_unique<jtag::TapDevice>("multibus_soc", cfg_.ir_width);
  tap_->add_idcode(cfg_.idcode, 0b0010);

  const std::size_t wires = cfg_.n_buses * cfg_.wires_per_bus;
  std::vector<bsc::CellKind> kinds(wires, bsc::CellKind::Pgbsc);
  kinds.insert(kinds.end(), wires, bsc::CellKind::Obsc);
  kinds.insert(kinds.end(), cfg_.m_extra_cells, bsc::CellKind::Standard);
  auto boundary =
      std::make_shared<bsc::PlaneRegister>(kinds, ctl_, cfg_.nd, cfg_.sd);
  boundary_ = boundary.get();
  boundary_->set_parallel_in(0, wires, Logic::L0);

  tap_->add_data_register("BOUNDARY", boundary);
  tap_->add_instruction(SiSocDevice::kExtest, 0b0000, "BOUNDARY");
  tap_->add_instruction(SiSocDevice::kSample, 0b0001, "BOUNDARY");
  tap_->add_instruction(SiSocDevice::kGSitest, 0b1000, "BOUNDARY");
  tap_->add_instruction(SiSocDevice::kOSitest, 0b1001, "BOUNDARY");

  tap_->on_instruction(
      [this](const std::string& name) { decode_instruction(name); });
  tap_->on_update_dr([this] { on_update_dr(); });
  tap_->on_reset([this] {
    pins_valid_ = false;
    decode_instruction(tap_->current_instruction());
  });

  decode_instruction(tap_->current_instruction());
}

std::size_t MultiBusSoc::chain_length() const {
  return 2 * cfg_.n_buses * cfg_.wires_per_bus + cfg_.m_extra_cells;
}

BitVec MultiBusSoc::nd_flags(std::size_t b) const {
  if (b >= cfg_.n_buses) throw std::out_of_range("bad bus");
  return boundary_->nd().slice(obsc_first(b), cfg_.wires_per_bus);
}

BitVec MultiBusSoc::sd_flags(std::size_t b) const {
  if (b >= cfg_.n_buses) throw std::out_of_range("bad bus");
  return boundary_->sd().slice(obsc_first(b), cfg_.wires_per_bus);
}

void MultiBusSoc::set_sink(obs::Sink* sink) {
  sink_ = sink;
  for (auto& bus : buses_) bus->set_sink(sink);
}

void MultiBusSoc::decode_instruction(const std::string& name) {
  jtag::CellCtl c;
  ositest_ = name == SiSocDevice::kOSitest;
  scans_boundary_ = &tap_->selected() == boundary_;
  if (name == SiSocDevice::kExtest) {
    c = {.mode = true, .si = false, .ce = false, .gen = false, .nd_sd = true};
  } else if (name == SiSocDevice::kGSitest) {
    c = {.mode = true, .si = true, .ce = true, .gen = true, .nd_sd = true};
  } else if (ositest_) {
    c = {.mode = true, .si = true, .ce = false, .gen = false, .nd_sd = true};
  }
  ctl_ = c;
  apply_buses(/*observe=*/false);
}

void MultiBusSoc::on_update_dr() {
  if (!scans_boundary_) return;
  if (ositest_) ctl_.nd_sd = !ctl_.nd_sd;
  apply_buses(/*observe=*/ctl_.ce);
}

void MultiBusSoc::apply_buses(bool observe) {
  const std::size_t n = cfg_.wires_per_bus;
  bool any_change = !pins_valid_;
  for (std::size_t b = 0; b < cfg_.n_buses; ++b) {
    boundary_->parallel_out(b * n, next_pins_[b]);
    if (next_pins_[b] != pins_[b]) any_change = true;
  }
  if (!any_change) return;

  if (!pins_valid_) {
    pins_valid_ = true;
    for (std::size_t b = 0; b < cfg_.n_buses; ++b) {
      pins_[b] = next_pins_[b];
      boundary_->set_parallel_in(obsc_first(b), pins_[b]);
    }
    return;
  }

  for (std::size_t b = 0; b < cfg_.n_buses; ++b) {
    if (next_pins_[b] == pins_[b]) continue;
    std::swap(pins_[b], next_pins_[b]);  // next_pins_[b]: previous drive
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
    // Batched per-bus evaluation (see SiSocDevice::apply_bus).
    receive_transition(*buses_[b],
                       buses_[b]->transition_batch(next_pins_[b], pins_[b]),
                       *boundary_, obsc_first(b), observe, sink_,
                       static_cast<std::int64_t>(b));
  }
}

// ---------------------------------------------------------------------------

bool MultiBusReport::any_violation() const {
  for (const auto& b : buses) {
    if (b.any_violation()) return true;
  }
  return false;
}

MultiBusSession::MultiBusSession(MultiBusSoc& soc)
    : soc_(&soc), master_(soc.tap()) {}

TestPlan MultiBusSession::plan(ObservationMethod method) const {
  const MultiBusConfig& cfg = soc_->config();
  return plan_multibus_session(cfg.n_buses, cfg.wires_per_bus,
                               cfg.m_extra_cells, cfg.ir_width, method);
}

void MultiBusSession::set_sink(obs::Sink* sink) {
  sink_ = sink;
  master_.set_sink(sink);
  soc_->set_sink(sink);
}

MultiBusReport MultiBusSession::run(ObservationMethod method) {
  MultiBusTarget target(*soc_);
  TestPlanEngine engine(master_, target);
  engine.set_sink(sink_);
  obs::emit_span(sink_, obs::EventKind::SessionBegin, "multibus",
                 master_.tck());
  EngineResult res = engine.execute(plan(method));

  MultiBusReport r;
  r.buses = std::move(res.reports);
  r.total_tcks = res.total_tcks;
  r.generation_tcks = res.generation_tcks;
  r.observation_tcks = res.observation_tcks;
  obs::emit_span(sink_, obs::EventKind::SessionEnd, "multibus", master_.tck(),
                 res.total_tcks);
  return r;
}

}  // namespace jsi::core

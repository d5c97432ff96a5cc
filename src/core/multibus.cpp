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
  }

  tap_ = std::make_unique<jtag::TapDevice>("multibus_soc", cfg_.ir_width);
  tap_->add_idcode(cfg_.idcode, 0b0010);

  auto boundary =
      std::make_shared<jtag::BoundaryRegister>([this] { return ctl_; });
  boundary_ = boundary.get();

  pgbscs_.resize(cfg_.n_buses);
  obscs_.resize(cfg_.n_buses);
  for (std::size_t b = 0; b < cfg_.n_buses; ++b) {
    for (std::size_t w = 0; w < cfg_.wires_per_bus; ++w) {
      auto cell = std::make_unique<bsc::Pgbsc>();
      cell->set_parallel_in(Logic::L0);
      pgbscs_[b].push_back(cell.get());
      boundary_->add_cell(std::move(cell));
    }
  }
  for (std::size_t b = 0; b < cfg_.n_buses; ++b) {
    for (std::size_t w = 0; w < cfg_.wires_per_bus; ++w) {
      auto cell = std::make_unique<bsc::Obsc>(cfg_.nd, cfg_.sd);
      obscs_[b].push_back(cell.get());
      boundary_->add_cell(std::move(cell));
    }
  }
  for (std::size_t i = 0; i < cfg_.m_extra_cells; ++i) {
    boundary_->add_cell(std::make_unique<bsc::StandardBsc>());
  }

  tap_->add_data_register("BOUNDARY", boundary);
  tap_->add_instruction(SiSocDevice::kExtest, 0b0000, "BOUNDARY");
  tap_->add_instruction(SiSocDevice::kSample, 0b0001, "BOUNDARY");
  tap_->add_instruction(SiSocDevice::kGSitest, 0b1000, "BOUNDARY");
  tap_->add_instruction(SiSocDevice::kOSitest, 0b1001, "BOUNDARY");

  tap_->on_instruction(
      [this](const std::string& name) { decode_instruction(name); });
  tap_->on_update_dr([this] { on_update_dr(); });
  tap_->on_reset([this] {
    ctl_ = jtag::CellCtl{};
    pins_valid_ = false;
    apply_buses(false);
  });

  decode_instruction(tap_->current_instruction());
}

std::size_t MultiBusSoc::chain_length() const {
  return 2 * cfg_.n_buses * cfg_.wires_per_bus + cfg_.m_extra_cells;
}

bsc::Pgbsc& MultiBusSoc::pgbsc(std::size_t b, std::size_t wire) {
  return *pgbscs_.at(b).at(wire);
}

bsc::Obsc& MultiBusSoc::obsc(std::size_t b, std::size_t wire) {
  return *obscs_.at(b).at(wire);
}

BitVec MultiBusSoc::nd_flags(std::size_t b) const {
  BitVec v(cfg_.wires_per_bus, false);
  for (std::size_t w = 0; w < cfg_.wires_per_bus; ++w) {
    v.set(w, obscs_.at(b)[w]->nd().flag());
  }
  return v;
}

BitVec MultiBusSoc::sd_flags(std::size_t b) const {
  BitVec v(cfg_.wires_per_bus, false);
  for (std::size_t w = 0; w < cfg_.wires_per_bus; ++w) {
    v.set(w, obscs_.at(b)[w]->sd().flag());
  }
  return v;
}

void MultiBusSoc::set_sink(obs::Sink* sink) {
  sink_ = sink;
  for (std::size_t b = 0; b < cfg_.n_buses; ++b) {
    buses_[b]->set_sink(sink);
    for (std::size_t w = 0; w < cfg_.wires_per_bus; ++w) {
      obscs_[b][w]->set_sink(sink, static_cast<std::int64_t>(w),
                             static_cast<std::int64_t>(b));
    }
  }
}

bool MultiBusSoc::boundary_selected() const {
  const std::string& inst = tap_->current_instruction();
  return inst == SiSocDevice::kExtest || inst == SiSocDevice::kSample ||
         inst == SiSocDevice::kGSitest || inst == SiSocDevice::kOSitest;
}

void MultiBusSoc::decode_instruction(const std::string& name) {
  jtag::CellCtl c;
  if (name == SiSocDevice::kExtest) {
    c = {.mode = true, .si = false, .ce = false, .gen = false, .nd_sd = true};
  } else if (name == SiSocDevice::kGSitest) {
    c = {.mode = true, .si = true, .ce = true, .gen = true, .nd_sd = true};
  } else if (name == SiSocDevice::kOSitest) {
    c = {.mode = true, .si = true, .ce = false, .gen = false, .nd_sd = true};
  }
  ctl_ = c;
  apply_buses(/*observe=*/false);
}

void MultiBusSoc::on_update_dr() {
  if (!boundary_selected()) return;
  if (tap_->current_instruction() == SiSocDevice::kOSitest) {
    ctl_.nd_sd = !ctl_.nd_sd;
  }
  apply_buses(/*observe=*/ctl_.ce);
}

void MultiBusSoc::apply_buses(bool observe) {
  const std::size_t n = cfg_.wires_per_bus;
  bool any_change = false;
  std::vector<BitVec> next;
  next.reserve(cfg_.n_buses);
  for (std::size_t b = 0; b < cfg_.n_buses; ++b) {
    BitVec v(n, false);
    for (std::size_t w = 0; w < n; ++w) {
      v.set(w, util::to_bool(pgbscs_[b][w]->parallel_out(ctl_)));
    }
    if (!pins_valid_ || v != pins_[b]) any_change = true;
    next.push_back(std::move(v));
  }
  if (pins_valid_ && !any_change) return;

  if (!pins_valid_) {
    pins_ = next;
    pins_valid_ = true;
    for (std::size_t b = 0; b < cfg_.n_buses; ++b) {
      for (std::size_t w = 0; w < n; ++w) {
        obscs_[b][w]->set_parallel_in(util::to_logic(next[b][w]));
      }
    }
    return;
  }

  for (std::size_t b = 0; b < cfg_.n_buses; ++b) {
    if (next[b] == pins_[b]) continue;
    const BitVec prev = pins_[b];
    pins_[b] = next[b];
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
    receive_transition(*buses_[b], buses_[b]->transition_batch(prev, next[b]),
                       obscs_[b], ctl_, observe);
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

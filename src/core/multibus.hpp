#ifndef JSI_CORE_MULTIBUS_HPP
#define JSI_CORE_MULTIBUS_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "bsc/planes.hpp"
#include "core/plan.hpp"
#include "core/report.hpp"
#include "jtag/device.hpp"
#include "jtag/master.hpp"
#include "obs/events.hpp"
#include "si/bus.hpp"
#include "si/detectors.hpp"

namespace jsi::core {

/// Configuration of a SoC with several core-to-core interconnect buses
/// sharing one TAP — the natural SoC-scale generalization of the paper's
/// two-core architecture (its Fig 11 shows one bus; a real SoC has many).
struct MultiBusConfig {
  std::size_t n_buses = 2;
  std::size_t wires_per_bus = 8;
  std::size_t m_extra_cells = 1;
  std::size_t ir_width = 4;
  std::uint32_t idcode = 0x0A572001u;
  si::BusParams bus{};  ///< electrical template shared by all buses
  si::NdParams nd{};
  si::SdParams sd{};
};

/// The per-bus electrical parameters in force for a SoC built from
/// `cfg`: `cfg.bus` with its width overridden by `cfg.wires_per_bus`
/// (the multi-bus counterpart of effective_bus_params(SocConfig)).
si::BusParams effective_bus_params(const MultiBusConfig& cfg);

/// SoC model with B equal-width buses. Boundary-register order (cell 0
/// nearest TDI):
///
///   [ PGBSC bus0 | PGBSC bus1 | ... | OBSC bus0 | OBSC bus1 | ... | extras ]
///
/// Keeping all PGBSC columns contiguous makes the one-bit victim-rotate
/// scan work *across* buses: each bus carries one hot bit in its block,
/// and a single shift advances the victim of every bus simultaneously —
/// B buses are tested in parallel for (almost) the cost of one.
class MultiBusSoc {
 public:
  explicit MultiBusSoc(MultiBusConfig cfg);

  /// Construct with every bus cloned from `prototype` instead of built
  /// fresh from `cfg.bus` — a campaign worker's warmed bus clone seeds
  /// all B interconnects (memoized waveforms and hit/miss counters
  /// carried over; the prototype's sink is not). `prototype.n()` must
  /// equal `cfg.wires_per_bus` (throws std::invalid_argument otherwise);
  /// `cfg.bus` is overridden by the prototype's electrical parameters.
  MultiBusSoc(MultiBusConfig cfg, const si::CoupledBus& prototype);

  MultiBusSoc(const MultiBusSoc&) = delete;
  MultiBusSoc& operator=(const MultiBusSoc&) = delete;

  const MultiBusConfig& config() const { return cfg_; }
  jtag::TapDevice& tap() { return *tap_; }

  std::size_t n_buses() const { return cfg_.n_buses; }
  std::size_t wires_per_bus() const { return cfg_.wires_per_bus; }
  std::size_t chain_length() const;

  si::CoupledBus& bus(std::size_t b) { return *buses_.at(b); }
  /// The boundary register as bit planes (cell order as above): bus b's
  /// PGBSCs from `b * wires_per_bus()`, its OBSCs from `obsc_first(b)`.
  const bsc::PlaneRegister& boundary() const { return *boundary_; }
  std::size_t obsc_first(std::size_t b) const {
    return (cfg_.n_buses + b) * cfg_.wires_per_bus;
  }

  const jtag::CellCtl& controls() const { return ctl_; }
  const util::BitVec& driven_pins(std::size_t b) const {
    return pins_.at(b);
  }

  util::BitVec nd_flags(std::size_t b) const;
  util::BitVec sd_flags(std::size_t b) const;

  /// Total per-bus transitions simulated across all buses.
  std::uint64_t bus_transitions() const { return bus_transitions_; }

  /// Attach an observability sink to every bus (CacheLookup), the
  /// sensors (DetectorFired with wire/bus ids) and the SoC itself
  /// (BusTransition, a = bus index). nullptr detaches everything.
  void set_sink(obs::Sink* sink);

 private:
  MultiBusSoc(MultiBusConfig cfg, const si::CoupledBus* prototype);

  /// Once per Update-IR and per Test-Logic-Reset (see SiSocDevice).
  void decode_instruction(const std::string& name);
  void on_update_dr();
  void apply_buses(bool observe);

  MultiBusConfig cfg_;
  std::vector<std::unique_ptr<si::CoupledBus>> buses_;
  jtag::CellCtl ctl_{};  // before tap_: its boundary register reads it
  std::unique_ptr<jtag::TapDevice> tap_;
  bsc::PlaneRegister* boundary_ = nullptr;  // owned by tap_
  bool scans_boundary_ = false;
  bool ositest_ = false;
  std::vector<util::BitVec> pins_;       // per bus
  std::vector<util::BitVec> next_pins_;  // apply_buses scratch
  bool pins_valid_ = false;
  std::uint64_t bus_transitions_ = 0;
  obs::Sink* sink_ = nullptr;
};

/// Per-bus outcome of a parallel multi-bus session.
struct MultiBusReport {
  std::vector<IntegrityReport> buses;  ///< per-bus patterns/flags
  std::uint64_t total_tcks = 0;
  std::uint64_t generation_tcks = 0;
  std::uint64_t observation_tcks = 0;

  bool any_violation() const;
};

/// Drives the paper's Fig 12 flow over all buses at once: one preload,
/// one G-SITEST, one victim-select scan placing a hot bit in every bus's
/// PGBSC block, then the shared 3-updates-plus-rotate loop. Pattern
/// application cost is that of a *single* bus; only the scans grow with
/// the chain. Read-out is a single O-SITEST pass pair covering every
/// OBSC. A thin planner over the shared TestPlanEngine (see
/// core::plan_multibus_session).
class MultiBusSession {
 public:
  explicit MultiBusSession(MultiBusSoc& soc);

  MultiBusReport run(ObservationMethod method);

  /// The plan `run(method)` executes.
  TestPlan plan(ObservationMethod method) const;

  jtag::TapMaster& master() { return master_; }

  /// Attach an observability sink (session name "multibus").
  void set_sink(obs::Sink* sink);

 private:
  MultiBusSoc* soc_;
  jtag::TapMaster master_;
  obs::Sink* sink_ = nullptr;
};

}  // namespace jsi::core

#endif  // JSI_CORE_MULTIBUS_HPP

#ifndef JSI_CORE_SOC_HPP
#define JSI_CORE_SOC_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "bsc/planes.hpp"
#include "jtag/device.hpp"
#include "obs/events.hpp"
#include "si/bus.hpp"
#include "si/detectors.hpp"
#include "util/bitvec.hpp"

namespace jsi::core {

/// Configuration of the SoC model: the paper's two cores joined by one
/// bus (Fig 11), or B equal-width core-to-core buses behind the same TAP.
struct SocConfig {
  std::size_t n_buses = 1;        ///< core-to-core buses behind the one TAP
  std::size_t n_wires = 8;        ///< interconnects under test, per bus
  std::size_t m_extra_cells = 1;  ///< other (standard) cells in the chain
  bool enhanced = true;  ///< true: PGBSC/OBSC architecture; false: the
                         ///< conventional-BSA baseline (standard cells on
                         ///< the sending side, used for Table 5)
  std::size_t ir_width = 4;
  std::uint32_t idcode = 0x0A571001u;  ///< arbitrary but fixed device id
  si::BusParams bus{};  ///< every bus's electrical template; its n_wires
                        ///< is overridden by `n_wires`
  si::NdParams nd{};
  si::SdParams sd{};
};

/// The electrical parameters actually in force on each bus of a SoC
/// built from `cfg`: `cfg.bus` with its width overridden by
/// `cfg.n_wires`. The one place this widening rule lives — the device
/// constructor, the campaign unit builders and the scenario builder all
/// derive bus parameters through it.
si::BusParams effective_bus_params(const SocConfig& cfg);

/// The paper's test architecture: Core i drives `n` interconnects through
/// sending-side boundary cells, Core j receives them through observation
/// cells, and a single IEEE 1149.1 TAP serves the whole chip. A SoC with
/// B core-to-core buses is the same chain with B blocks in each column.
///
/// Boundary-register order (cell 0 nearest TDI; n = n_wires, B = n_buses):
///   [0, Bn)        sending cells, bus b's from b*n (PGBSC, or StandardBsc
///                  when `enhanced == false`)
///   [Bn, 2Bn)      receiving cells (OBSC), bus b's from obsc_first(b)
///   [2Bn, 2Bn+m)   other standard cells
/// At B=1 this is Fig 11's chain. Keeping the sending blocks contiguous
/// makes the one-bit victim-rotate scan work across buses: each bus
/// carries one hot bit in its block, and one shift advances the victim of
/// every bus, so B buses are tested for (almost) the cost of one.
///
/// Instruction set (4-bit IR by default):
///   EXTEST 0000, SAMPLE/PRELOAD 0001, IDCODE 0010, CLAMP 0100,
///   HIGHZ 0101, **G-SITEST 1000**, **O-SITEST 1001**, BYPASS 1111.
///
/// Control-signal decode (paper §4.1):
///   | instruction     | Mode | SI | CE | GEN |
///   | EXTEST          |  1   | 0  | 0  |  0  |
///   | SAMPLE/PRELOAD  |  0   | 0  | 0  |  0  |
///   | G-SITEST        |  1   | 1  | 1  |  1  |
///   | O-SITEST        |  1   | 1  | 0  |  0  |
/// and `nd_sd` starts at ND on O-SITEST decode, complementing at every
/// Update-DR so consecutive shift passes read ND then SD. The decode runs
/// at Update-IR and at Test-Logic-Reset, which makes the reset
/// instruction (IDCODE) current and so also ends CLAMP and HIGHZ.
///
/// Every Update-DR (and instruction change, and functional core-output
/// change) re-evaluates the driven pins of every bus; each bus whose
/// pins changed makes one transition of its coupled-bus model, whose
/// receiving ends are judged by that bus's OBSC sensors and settle into
/// their parallel inputs.
class SiSocDevice {
 public:
  /// Builds `cfg.n_buses` buses from `cfg.bus`.
  explicit SiSocDevice(SocConfig cfg);

  /// Runs on `buses`, moved in — the campaign path, where each unit hands
  /// in clones of the campaign's warmed prototype bus. There must be
  /// `cfg.n_buses` of them, each `cfg.n_wires` wide (throws
  /// std::invalid_argument otherwise). Detector supplies and
  /// `config().bus` follow bus 0's electrical parameters.
  SiSocDevice(SocConfig cfg, std::vector<si::CoupledBus> buses);

  // Non-copyable: the TAP holds callbacks into this object.
  SiSocDevice(const SiSocDevice&) = delete;
  SiSocDevice& operator=(const SiSocDevice&) = delete;

  const SocConfig& config() const { return cfg_; }

  /// The 1149.1 test logic (clock it directly or via a TapMaster).
  jtag::TapDevice& tap() { return *tap_; }

  /// The interconnect model of bus `b` (inject defects here).
  si::CoupledBus& bus(std::size_t b = 0) { return buses_.at(b); }
  const si::CoupledBus& bus(std::size_t b = 0) const { return buses_.at(b); }

  /// Total boundary-register length 2Bn+m.
  std::size_t chain_length() const;

  /// The boundary register as bit planes (cell order as above).
  const bsc::PlaneRegister& boundary() const { return *boundary_; }

  /// First cell of bus `b`'s OBSC block.
  std::size_t obsc_first(std::size_t b = 0) const {
    return (cfg_.n_buses + b) * cfg_.n_wires;
  }

  /// Current control-signal decode (Tables 1/3 inputs).
  const jtag::CellCtl& controls() const { return ctl_; }

  /// Functional value the sending core drives on wire `i`, counted
  /// across buses in chain order (bus b's wire w is b*n + w); visible on
  /// the bus when Mode=0.
  void set_core_output(std::size_t i, util::Logic v);

  /// Value the receiving core sees on wire `i` (chain order, through the
  /// OBSC).
  util::Logic core_input(std::size_t i) const;

  /// Pins currently driven on bus `b` (X-free once anything drove it).
  const util::BitVec& driven_pins(std::size_t b = 0) const {
    return pins_.at(b);
  }

  /// Bus transitions simulated, over all buses (each is one batched
  /// store lookup of its bus).
  std::uint64_t bus_transitions() const { return bus_transitions_; }

  /// Bus `b`'s sticky sensor flags as bit vectors (bit i = wire i) — the
  /// ground truth the scan-out is checked against in tests.
  util::BitVec nd_flags(std::size_t b = 0) const;
  util::BitVec sd_flags(std::size_t b = 0) const;

  // Instruction names.
  static constexpr const char* kExtest = "EXTEST";
  static constexpr const char* kSample = "SAMPLE/PRELOAD";
  static constexpr const char* kGSitest = "G-SITEST";
  static constexpr const char* kOSitest = "O-SITEST";
  static constexpr const char* kClamp = "CLAMP";
  static constexpr const char* kHighz = "HIGHZ";

  /// True while HIGHZ floats every bus's drivers (receivers read Z).
  bool bus_released() const { return highz_; }

  /// Attach an observability sink to the whole device model: every bus
  /// (CacheLookup), the sensors (DetectorFired: a = wire, b = -1 on a
  /// one-bus device and the bus index otherwise) and the SoC itself
  /// (BusTransition per simulated transition, a = bus index, stamped
  /// with the device's TCK count). nullptr detaches everything.
  void set_sink(obs::Sink* sink);

 private:
  /// Decode `name` into the control word and the flags below: once per
  /// Update-IR and per Test-Logic-Reset, never per Update-DR.
  void decode_instruction(const std::string& name);
  void on_update_dr();
  void apply_bus(bool observe);

  SocConfig cfg_;
  std::vector<si::CoupledBus> buses_;
  jtag::CellCtl ctl_{};  // before tap_: its boundary register reads it
  std::unique_ptr<jtag::TapDevice> tap_;
  bsc::PlaneRegister* boundary_ = nullptr;  // owned by tap_
  bool scans_boundary_ = false;  // the instruction selects BOUNDARY
  bool ositest_ = false;         // Update-DR complements nd_sd
  bool highz_ = false;
  std::vector<util::BitVec> pins_;       // per bus
  std::vector<util::BitVec> next_pins_;  // apply_bus scratch, per bus
  bool pins_valid_ = false;
  std::uint64_t bus_transitions_ = 0;
  obs::Sink* sink_ = nullptr;
};

}  // namespace jsi::core

#endif  // JSI_CORE_SOC_HPP

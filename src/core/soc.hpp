#ifndef JSI_CORE_SOC_HPP
#define JSI_CORE_SOC_HPP

#include <cstdint>
#include <memory>

#include "bsc/planes.hpp"
#include "jtag/device.hpp"
#include "obs/events.hpp"
#include "si/bus.hpp"
#include "si/detectors.hpp"
#include "util/bitvec.hpp"

namespace jsi::core {

/// Configuration of the two-core SoC model (paper Fig 11).
struct SocConfig {
  std::size_t n_wires = 8;        ///< interconnects under test between cores
  std::size_t m_extra_cells = 1;  ///< other (standard) cells in the chain
  bool enhanced = true;  ///< true: PGBSC/OBSC architecture; false: the
                         ///< conventional-BSA baseline (standard cells on
                         ///< the sending side, used for Table 5)
  std::size_t ir_width = 4;
  std::uint32_t idcode = 0x0A571001u;  ///< arbitrary but fixed device id
  si::BusParams bus{};                 ///< n_wires is overridden by `n_wires`
  si::NdParams nd{};
  si::SdParams sd{};
};

/// The electrical parameters actually in force for a SoC built from
/// `cfg`: `cfg.bus` with its width overridden by `cfg.n_wires`. The one
/// place this widening rule lives — the device constructor, the campaign
/// unit builders and the scenario builder all derive bus parameters
/// through it.
si::BusParams effective_bus_params(const SocConfig& cfg);

/// The receiving end of one bus transition, which `bus` served as
/// `batch`: the OBSCs of `cells` from `first` on, one per wire, take
/// their wire's settled logic (read from the entry's final sample) as
/// parallel input and, when `observe`, latch the wire's ND/SD verdicts
/// (CoupledBus::judge under the cells' sensor params) while CE is high.
/// Wires that share a verdict slot share a store entry — its recipe, so
/// also its samples and driven levels — so each run of such wires is
/// judged once, and its flags and levels are written as one range. A
/// newly set flag goes to `sink` as a DetectorFired record (a = wire,
/// b = `bus_id`), in wire order, ND before SD. SiSocDevice and
/// MultiBusSoc (once per bus) receive through this one loop.
void receive_transition(const si::CoupledBus& bus,
                        const si::TransitionBatch& batch,
                        bsc::PlaneRegister& cells, std::size_t first,
                        bool observe, obs::Sink* sink, std::int64_t bus_id);

/// The paper's test architecture: Core i drives `n` interconnects through
/// sending-side boundary cells, Core j receives them through observation
/// cells, and a single IEEE 1149.1 TAP serves the whole chip.
///
/// Boundary-register order (cell 0 nearest TDI):
///   [0, n)        sending cells (PGBSC, or StandardBsc when
///                 `enhanced == false`)
///   [n, 2n)       receiving cells (OBSC)
///   [2n, 2n+m)    other standard cells
///
/// Instruction set (4-bit IR by default):
///   EXTEST 0000, SAMPLE/PRELOAD 0001, IDCODE 0010,
///   **G-SITEST 1000**, **O-SITEST 1001**, BYPASS 1111.
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
/// change) re-evaluates the driven pin vector; when it changes, the
/// coupled-bus model produces per-wire receiving-end waveforms which are
/// fed to the OBSC sensors and settle into the receiving cells' parallel
/// inputs.
class SiSocDevice {
 public:
  explicit SiSocDevice(SocConfig cfg);

  /// Construct against an externally-owned interconnect model instead of
  /// building one from `cfg.bus` — the campaign-runner path, where each
  /// worker owns a warmed si::CoupledBus clone and hands it to one
  /// short-lived device per work unit. `bus.n()` must equal
  /// `cfg.n_wires` (throws std::invalid_argument otherwise); the device
  /// does not take ownership and `bus` must outlive it. Detector
  /// supplies and `config().bus` follow the external bus's parameters.
  SiSocDevice(SocConfig cfg, si::CoupledBus& bus);

  // Non-copyable: the TAP holds callbacks into this object.
  SiSocDevice(const SiSocDevice&) = delete;
  SiSocDevice& operator=(const SiSocDevice&) = delete;

  const SocConfig& config() const { return cfg_; }

  /// The 1149.1 test logic (clock it directly or via a TapMaster).
  jtag::TapDevice& tap() { return *tap_; }

  /// The interconnect model (inject defects here).
  si::CoupledBus& bus() { return *bus_; }
  const si::CoupledBus& bus() const { return *bus_; }

  /// Total boundary-register length 2n+m.
  std::size_t chain_length() const;

  /// The boundary register as bit planes (cell order as above).
  const bsc::PlaneRegister& boundary() const { return *boundary_; }

  /// Current control-signal decode (Tables 1/3 inputs).
  const jtag::CellCtl& controls() const { return ctl_; }

  /// Functional value Core i drives on wire `i` (visible on the bus when
  /// Mode=0).
  void set_core_output(std::size_t i, util::Logic v);

  /// Value Core j receives on wire `i` (through the OBSC).
  util::Logic core_input(std::size_t i) const;

  /// Currently driven pin vector (X-free once anything drove the bus).
  const util::BitVec& driven_pins() const { return pins_; }

  /// Number of bus transitions simulated (each ran the coupled-RC solver).
  std::uint64_t bus_transitions() const { return bus_transitions_; }

  /// Sticky sensor flags as bit vectors (bit i = wire i) — the ground
  /// truth the scan-out is checked against in tests.
  util::BitVec nd_flags() const;
  util::BitVec sd_flags() const;

  // Instruction names.
  static constexpr const char* kExtest = "EXTEST";
  static constexpr const char* kSample = "SAMPLE/PRELOAD";
  static constexpr const char* kGSitest = "G-SITEST";
  static constexpr const char* kOSitest = "O-SITEST";
  static constexpr const char* kClamp = "CLAMP";
  static constexpr const char* kHighz = "HIGHZ";

  /// True while HIGHZ floats the bus drivers (receivers read Z).
  bool bus_released() const { return highz_; }

  /// Attach an observability sink to the whole device model: the bus
  /// (CacheLookup), the sensors (DetectorFired, a=wire) and the SoC
  /// itself (BusTransition per simulated transition, stamped with the
  /// device's TCK count). nullptr detaches everything.
  void set_sink(obs::Sink* sink);

 private:
  SiSocDevice(SocConfig cfg, si::CoupledBus* external);

  /// Decode `name` into the control word and the flags below: once per
  /// Update-IR and per Test-Logic-Reset, never per Update-DR.
  void decode_instruction(const std::string& name);
  void on_update_dr();
  void apply_bus(bool observe);

  SocConfig cfg_;
  std::unique_ptr<si::CoupledBus> owned_bus_;  // null when bus is external
  si::CoupledBus* bus_ = nullptr;
  jtag::CellCtl ctl_{};  // before tap_: its boundary register reads it
  std::unique_ptr<jtag::TapDevice> tap_;
  bsc::PlaneRegister* boundary_ = nullptr;  // owned by tap_
  bool scans_boundary_ = false;  // the instruction selects BOUNDARY
  bool ositest_ = false;         // Update-DR complements nd_sd
  bool highz_ = false;
  util::BitVec pins_;
  util::BitVec next_pins_;  // apply_bus scratch
  bool pins_valid_ = false;
  std::uint64_t bus_transitions_ = 0;
  obs::Sink* sink_ = nullptr;
};

}  // namespace jsi::core

#endif  // JSI_CORE_SOC_HPP

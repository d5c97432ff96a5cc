// Fig 10 / Table 4 — the OBSC `sel` signal and the read-out sequencing.
//
// Reproduces the paper's description: in Capture-DR with SI=1 the capture
// mux (sel=0) loads the selected ND/SD flip-flop into FF1; in Shift-DR the
// chain is re-formed (sel=1) and the flags ripple toward TDO; the ND/SD
// select complements at Update-DR so the second pass reads the other
// sensor. Demonstrated on the real TAP with a defective bus.

#include <iostream>

#include "core/session.hpp"
#include "jtag/master.hpp"
#include "util/table.hpp"

using namespace jsi;

int main() {
  // Table 4 as implemented by the cell (see Obsc::capture / BoundaryCell::shift_bit).
  util::Table t4({"SI", "ShiftDR", "sel", "FF1 source"});
  t4.set_title("Table 4: truth table of signal sel");
  t4.add_row({"0", "x", "1", "pin (standard capture)"});
  t4.add_row({"1", "0", "0", "ND/SD flip-flop (per ND_SD)"});
  t4.add_row({"1", "1", "1", "scan chain (TDI)"});
  std::cout << t4 << '\n';

  // Live demonstration: a 4-wire SoC with one noisy and one skewed wire.
  constexpr std::size_t kN = 4;
  core::SocConfig cfg;
  cfg.n_wires = kN;
  core::SiSocDevice soc(cfg);
  soc.bus().inject_crosstalk_defect(1, 6.0);
  soc.bus().add_series_resistance(3, 900.0);

  core::SiTestSession session(soc);
  const auto report = session.run(core::ObservationMethod::OnceAtEnd);

  std::cout << "After the G-SITEST pattern set (wire 1: coupling defect, "
               "wire 3: resistive open):\n\n";
  util::Table seq({"O-SITEST step", "ND_SD", "chain bits (wire 3..0)"});
  seq.add_row({"Capture-DR + Shift-DR pass 1", "ND",
               report.readouts[0].nd.to_string()});
  seq.add_row({"Update-DR complements ND_SD", "->SD", "-"});
  seq.add_row({"Capture-DR + Shift-DR pass 2", "SD",
               report.readouts[0].sd.to_string()});
  std::cout << seq << '\n';

  std::cout << "ground truth  ND=" << soc.nd_flags().to_string()
            << "  SD=" << soc.sd_flags().to_string() << '\n';
  const bool ok = report.readouts[0].nd == soc.nd_flags() &&
                  report.readouts[0].sd == soc.sd_flags();
  std::cout << (ok ? "scan-out matches the sticky sensor flip-flops. OK"
                   : "MISMATCH between scan-out and sensors!")
            << '\n';
  return ok ? 0 : 1;
}

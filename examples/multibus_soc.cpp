// Multi-bus SoC: test every inter-core bus of a four-core design in one
// parallel G-SITEST session through a single TAP.
//
//   core0 ==bus0==> core1 ==bus1==> core2 ==bus2==> core3
//
// All three 8-wire buses share the boundary-scan chain; the one-hot
// victim select of each bus advances with the same one-bit rotate scan,
// so the whole SoC is screened in barely more clocks than a single bus.
// Topology and defects come from scenarios/multibus_soc.scenario.json.

#include <iostream>

#include "core/session.hpp"
#include "scenario/build.hpp"
#include "scenario/parse.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace jsi;

  const std::string path =
      argc > 1 ? argv[1]
               : std::string(JSI_SCENARIO_DIR) + "/multibus_soc.scenario.json";
  const scenario::ScenarioSpec spec = scenario::load_scenario(path);

  // One SoC model serves one bus or many: the spec's three buses are
  // three blocks of the one boundary-scan chain.
  const core::SocConfig cfg = scenario::soc_config(spec);
  core::SiSocDevice soc(cfg);

  std::cout << "SoC: " << cfg.n_buses << " buses x " << cfg.n_wires
            << " wires, chain length " << soc.chain_length() << "\n\n";

  // Manufacturing defects in two different buses (bus0 wire5: coupling;
  // bus2 wire1: resistive), as the scenario declares them.
  for (const auto& d : scenario::resolved_defects(spec)) {
    scenario::apply_defect(soc.bus(d.bus), d);
  }

  core::MultiBusSession session(soc);
  const auto report =
      session.run(scenario::observation_method(spec.sessions.at(0)));

  std::cout << "One parallel session: " << report.total_tcks
            << " TCKs (generation " << report.generation_tcks
            << ", observation " << report.observation_tcks << ")\n\n";

  util::Table t({"bus", "ND flags (w7..w0)", "SD flags (w7..w0)",
                 "verdict"});
  for (std::size_t b = 0; b < cfg.n_buses; ++b) {
    const auto& r = report.buses[b];
    t.add_row({std::to_string(b), r.nd_final.to_string(),
               r.sd_final.to_string(),
               r.any_violation() ? "VIOLATIONS" : "clean"});
  }
  std::cout << t << '\n';

  // Compare with testing the buses one after another.
  core::SocConfig single;
  single.n_wires = cfg.n_wires;
  core::SiSocDevice ssoc(single);
  core::SiTestSession ssession(ssoc);
  const auto sr = ssession.run(core::ObservationMethod::OnceAtEnd);
  std::cout << "Serial alternative: 3 x " << sr.total_tcks << " = "
            << 3 * sr.total_tcks << " TCKs -> parallel saves "
            << util::fmt_percent(1.0 - static_cast<double>(report.total_tcks) /
                                           (3.0 * sr.total_tcks))
            << ".\n";

  const bool ok = report.buses[0].nd_final[5] &&
                  report.buses[2].sd_final[1] &&
                  !report.buses[1].any_violation();
  std::cout << (ok ? "Defects localized to the right bus and wire.\n"
                   : "UNEXPECTED result!\n");
  return ok ? 0 : 1;
}

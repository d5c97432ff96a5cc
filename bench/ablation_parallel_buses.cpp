// Ablation — SoC-scale parallelism: testing B interconnect buses at once.
//
// The paper presents one bus between two cores (Fig 11); a real SoC has
// many. Because the PGBSC pattern machinery is per-cell and the one-bit
// victim rotation works across contiguous PGBSC blocks, B equal-width
// buses can run the whole MA session simultaneously: the per-victim
// update loop does not grow with B at all, only the chain scans do.
// This bench quantifies the win over running B single-bus sessions.

#include <iostream>

#include "core/session.hpp"
#include "util/table.hpp"

using namespace jsi;

namespace {

std::uint64_t parallel_tcks(std::size_t buses, std::size_t n) {
  core::SocConfig cfg;
  cfg.n_buses = buses;
  cfg.n_wires = n;
  core::SiSocDevice soc(cfg);
  core::MultiBusSession session(soc);
  return session.run(core::ObservationMethod::OnceAtEnd).total_tcks;
}

std::uint64_t serial_tcks(std::size_t buses, std::size_t n) {
  core::SocConfig cfg;
  cfg.n_wires = n;
  core::SiSocDevice soc(cfg);
  core::SiTestSession session(soc);
  return buses * session.run(core::ObservationMethod::OnceAtEnd).total_tcks;
}

}  // namespace

int main() {
  constexpr std::size_t kN = 8;
  std::cout << "Ablation: parallel multi-bus testing (" << kN
            << " wires per bus, method 1)\n\n";

  util::Table t({"buses", "B serial sessions [TCK]",
                 "1 parallel session [TCK]", "speedup"});
  for (std::size_t buses : {1u, 2u, 4u, 8u, 16u}) {
    const auto serial = serial_tcks(buses, kN);
    const auto parallel = parallel_tcks(buses, kN);
    t.add_row({std::to_string(buses), std::to_string(serial),
               std::to_string(parallel),
               util::fmt_double(static_cast<double>(serial) /
                                    static_cast<double>(parallel),
                                2) + "x"});
  }
  std::cout << t << '\n';

  std::cout << "The per-victim Update-DR loop is shared by all buses; only\n"
               "the preload/victim-select/read-out scans grow with the\n"
               "chain, so the parallel session approaches B-fold speedup\n"
               "for wide SoCs.\n";
  return 0;
}

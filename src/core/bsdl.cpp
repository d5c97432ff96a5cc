#include "core/bsdl.hpp"

namespace jsi::core {

jtag::BsdlDescription bsdl_for(const SiSocDevice& soc) {
  const SocConfig& cfg = soc.config();
  jtag::BsdlDescription d;
  d.entity = cfg.enhanced ? "jsi_si_soc" : "jsi_conventional_soc";
  d.ir_length = cfg.ir_width;
  d.idcode = cfg.idcode | 1u;
  d.has_idcode = true;
  d.instructions = {
      {"EXTEST", 0b0000},   {"SAMPLE", 0b0001},   {"IDCODE", 0b0010},
      {"CLAMP", 0b0100},    {"HIGHZ", 0b0101},    {"G_SITEST", 0b1000},
      {"O_SITEST", 0b1001}, {"BYPASS", 0b1111},
  };
  // Every bus's cells, in chain order: wire i is bus i / n, wire i % n.
  const std::size_t wires = cfg.n_buses * cfg.n_wires;
  for (std::size_t i = 0; i < wires; ++i) {
    d.cells.push_back({"BUS_OUT" + std::to_string(i), "OUTPUT2",
                       cfg.enhanced ? "PG_BSC" : "BC_1", 'X'});
  }
  for (std::size_t i = 0; i < wires; ++i) {
    d.cells.push_back(
        {"BUS_IN" + std::to_string(i), "INPUT", "OB_SC", 'X'});
  }
  for (std::size_t i = 0; i < cfg.m_extra_cells; ++i) {
    d.cells.push_back({"AUX" + std::to_string(i), "INPUT", "BC_1", 'X'});
  }
  return d;
}

std::string bsdl_text_for(const SiSocDevice& soc) {
  return jtag::to_bsdl(bsdl_for(soc));
}

}  // namespace jsi::core

#ifndef JSI_CORE_BSDL_HPP
#define JSI_CORE_BSDL_HPP

#include <string>

#include "core/soc.hpp"
#include "jtag/bsdl.hpp"

namespace jsi::core {

/// Build the BSDL description of an `SiSocDevice`: the standard and
/// extended instructions with their opcodes, the IDCODE, and one boundary
/// cell per stage in chain order — PG_BSC for the sending column, OB_SC
/// for the observing column (each numbered by wire across all buses),
/// BC_1 for the extra standard cells.
jtag::BsdlDescription bsdl_for(const SiSocDevice& soc);

/// Convenience: render directly to BSDL text.
std::string bsdl_text_for(const SiSocDevice& soc);

}  // namespace jsi::core

#endif  // JSI_CORE_BSDL_HPP

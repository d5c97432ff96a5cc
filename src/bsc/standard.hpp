#ifndef JSI_BSC_STANDARD_HPP
#define JSI_BSC_STANDARD_HPP

#include "jtag/cell.hpp"

namespace jsi::bsc {

/// The conventional IEEE 1149.1 boundary-scan cell (paper Fig 4): a
/// capture/shift flip-flop (FF1) feeding an update/hold flip-flop (FF2),
/// with the Mode mux selecting between the functional path and FF2.
///
/// Used for the `m` non-interconnect pins of the SoC model and for the
/// whole sending side of the conventional-BSA baseline.
class StandardBsc : public jtag::BoundaryCell {
 public:
  StandardBsc() = default;

  void capture(const jtag::CellCtl& c) override;
  void update(const jtag::CellCtl& c) override;
  void reset() override;

  void set_parallel_in(util::Logic v) override { pin_ = v; }
  util::Logic parallel_out(const jtag::CellCtl& c) const override;

  /// Update-stage (FF2) content.
  bool ff2() const { return ff2_; }

 private:
  util::Logic pin_ = util::Logic::X;
  bool ff2_ = false;
};

}  // namespace jsi::bsc

#endif  // JSI_BSC_STANDARD_HPP

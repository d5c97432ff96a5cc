#ifndef JSI_BSC_PLANES_HPP
#define JSI_BSC_PLANES_HPP

#include <cstdint>
#include <vector>

#include "jtag/cell.hpp"
#include "jtag/registers.hpp"
#include "si/detectors.hpp"
#include "util/bitvec.hpp"
#include "util/logic.hpp"

namespace jsi::bsc {

/// The kind of one cell of a PlaneRegister.
enum class CellKind : std::uint8_t { Standard, Pgbsc, Obsc };

/// A boundary-scan register of StandardBsc, Pgbsc and Obsc cells held as
/// bit planes: bit i of every plane belongs to cell i, cell 0 nearest TDI.
/// Each cell is a few gates driven by one broadcast control word (paper
/// Fig 6 / Table 1, Fig 9 / Table 3), so Capture-DR, Update-DR, a scan
/// burst, the driven-pin read and the sensor latch are each a pass of
/// word operations over the planes, not one virtual call per cell.
///
/// Planes over the whole chain: FF1 (the shift stage), FF2 (the update
/// stage) and the parallel input — one bit of it (to_bool) for capture,
/// plus its 4-state value for parallel_out. At PGBSC positions: FF3 and
/// "the last Update-DR clocked FF2". At OBSC positions: the ND and SD
/// sensor flags. Bits of a position-specific plane elsewhere stay 0.
///
/// The per-cell classes and jtag::BoundaryRegister stay the reference:
/// the gate-level equivalence tests check the cells, and a differential
/// test drives this register and a per-cell one through the same steps.
class PlaneRegister final : public jtag::DataRegister {
 public:
  /// Cells of `kinds[i]`, in chain order. `ctl` is the broadcast control
  /// word, read at every capture, update and parallel-out; it must
  /// outlive the register. Every OBSC's sensors judge under `nd`/`sd`.
  PlaneRegister(const std::vector<CellKind>& kinds, const jtag::CellCtl& ctl,
                si::NdParams nd = {}, si::SdParams sd = {});

  std::size_t length() const override { return ff1_.size(); }

  /// Standard cells load their input. A PGBSC loads its input outside
  /// SI and holds FF1 in SI (its victim select). An OBSC loads its input
  /// outside SI and, in SI, the sensor flag `nd_sd` selects.
  void capture() override;
  bool shift(bool tdi) override;
  /// An L-bit run: FF1 becomes (FF1 << L) | reverse(in); TDO is FF1's
  /// top L bits reversed, then in[0, L - N).
  void shift_run(const util::BitVec& in, util::BitVec& out) override;
  /// Standard cells and OBSCs copy FF1 to FF2. PGBSCs follow Table 1:
  /// outside SI FF2 = FF1, FF3 = 1, clocked = 1; in SI with GEN
  /// FF3' = ~FF3, clk = ~FF1 | (~FF3 & FF3'), FF2 ^= clk, clocked = clk;
  /// in SI without GEN (O-SITEST) every plane holds and clocked = 0.
  void update() override;
  /// Clears every state plane except FF3, which it sets. Parallel inputs
  /// are not state and stay.
  void reset() override;

  CellKind kind(std::size_t i) const;

  /// The broadcast control word the register reads.
  const jtag::CellCtl& controls() const { return *ctl_; }

  /// Drive the parallel input of cell i, or of cells [first, first+count).
  void set_parallel_in(std::size_t i, util::Logic v) {
    set_parallel_in(i, 1, v);
  }
  void set_parallel_in(std::size_t first, std::size_t count, util::Logic v);
  /// Cells [first, first + levels.size()) take levels[k] as 0/1.
  void set_parallel_in(std::size_t first, const util::BitVec& levels);

  /// Cell i's parallel output: FF2 under Mode=1, its input under Mode=0.
  util::Logic parallel_out(std::size_t i) const;
  /// Parallel outputs of cells [first, first + out.size()) as 0/1 bits
  /// (to_bool of a 4-state input), written into `out`.
  void parallel_out(std::size_t first, util::BitVec& out) const;

  /// OR `v` into the sensor flags of OBSCs [first, first+count) when CE
  /// is high; with CE low the flags stay ("the captured data in their
  /// flip-flops remain unchanged").
  void latch(std::size_t first, std::size_t count, si::Verdicts v);

  /// The sensor model every OBSC shares: CoupledBus::judge reads its
  /// params. Its own flag is unused; the flags are the planes below.
  const si::NdCell& nd_sensor() const { return nd_sensor_; }
  const si::SdCell& sd_sensor() const { return sd_sensor_; }

  const util::BitVec& ff1() const { return ff1_; }
  const util::BitVec& ff2() const { return ff2_; }
  const util::BitVec& ff3() const { return ff3_; }
  const util::BitVec& clocked() const { return clocked_; }
  const util::BitVec& nd() const { return nd_; }
  const util::BitVec& sd() const { return sd_; }
  /// The PGBSC positions.
  const util::BitVec& pgbsc_mask() const { return pg_; }

 private:
  const jtag::CellCtl* ctl_;
  si::NdCell nd_sensor_;
  si::SdCell sd_sensor_;
  util::BitVec pg_, ob_;  // PGBSC and OBSC positions; the rest are standard
  util::BitVec ff1_, ff2_, in_;
  std::vector<util::Logic> in_logic_;
  util::BitVec ff3_, clocked_;
  util::BitVec nd_, sd_;
};

}  // namespace jsi::bsc

#endif  // JSI_BSC_PLANES_HPP

#ifndef JSI_SCENARIO_SWEEP_HPP
#define JSI_SCENARIO_SWEEP_HPP

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/soc.hpp"
#include "scenario/spec.hpp"
#include "si/bus.hpp"
#include "util/bitvec.hpp"

namespace jsi::scenario {

/// Outcomes are folded into streaming aggregates (and the canonical
/// report drops its per-unit lines) when a sweep expands past this many
/// units; at or below it, the familiar per-unit transcript is kept.
inline constexpr std::size_t kSweepTranscriptThreshold = 128;

/// Lazy core::UnitSource over a sweep scenario: the campaign never holds
/// more than the units currently running. Unit `i` is a pure function of
/// (spec, i) — its grid point is `i / samples`, and all of its sampled
/// randomness (process-variation factors, per-die defect placement)
/// comes from `Prng(campaign.seed).split(i)`, so any unit is
/// reconstructible in isolation: by any worker thread, in any forked
/// worker process, or in a resumed run, without replaying units 0..i-1.
///
/// Each unit also books die-population yield metrics into its hub
/// registry (campaign-merged deterministically like every other metric):
///
///   sweep.units / sweep.violations / sweep.failures   whole population
///   sweep.grid.g<NNNN>.units / .violations / .failures  per grid point
///   sweep.unit_tcks                                    histogram
///
/// and, when the spec sets `sweep.spec_limits`, every completed die's
/// ground truth (`die_truth`) against its per-wire ND|SD flags:
///
///   sweep.truth.{bad,escapes,overkill,wire_tp,wire_fp,wire_fn,wire_tn}
///   sweep.grid.g<NNNN>.truth.*                         per grid point
///
/// which is what `render_yield_json` folds into the yield curve without
/// any per-unit state surviving the campaign.
class SweepUnitSource : public core::UnitSource {
 public:
  /// One detector-threshold grid point (the cross product of the spec's
  /// non-empty axes; an unset field means "topology default").
  struct GridPoint {
    std::size_t id = 0;
    std::optional<double> nd_vhthr_frac;
    std::optional<std::uint64_t> sd_budget_ps;
  };

  /// `spec.sweep` must be present (throws SpecError otherwise). The
  /// source copies everything it needs; the spec need not outlive it.
  explicit SweepUnitSource(const ScenarioSpec& spec);

  std::size_t count() const override;
  core::CampaignUnit unit(std::size_t index) const override;

  std::size_t samples() const { return sweep_.samples; }
  std::size_t grid_points() const { return grid_.size(); }
  const GridPoint& grid_point(std::size_t gid) const { return grid_[gid]; }

  /// Stable metric prefix of grid point `gid`, e.g. "sweep.grid.g0007".
  /// Zero-padded so the registry's name order equals grid order.
  static std::string grid_prefix(std::size_t gid);

  /// The SocConfig unit `index` runs against — grid point and sampled
  /// process variation applied. Exposed so tests can pin the per-index
  /// derivation without running the session.
  core::SocConfig unit_config(std::size_t index) const;

  /// The resolved defect list of unit `index`: the campaign-seeded
  /// shared defects followed by the die's own placements. Same test
  /// hook as `unit_config`.
  std::vector<DefectSpec> unit_defects(std::size_t index) const;

 private:
  SweepSpec sweep_;
  TopologySpec topo_;
  core::SocConfig base_;
  std::uint64_t seed_ = 0;
  std::vector<DefectSpec> shared_;  ///< campaign-seeded, same for every die
  std::vector<GridPoint> grid_;
  SessionKind kind_ = SessionKind::Enhanced;
  core::ObservationMethod method_ = core::ObservationMethod::OnceAtEnd;
  std::size_t guard_ = 2;
  std::string name_prefix_;
};

/// Physics ground truth of one die: which wires violate the shipping
/// spec under worst-case Maximum-Aggressor stress, measured straight
/// from the bus model with no DFT involved.
struct DieTruth {
  util::BitVec noisy;   ///< a Pg/Pg'/Ng/Ng' excursion reached the limit
  util::BitVec skewed;  ///< an Rs/Fs 50% arrival was late or never came
};

/// Judge the die `bus` models against `limits`, relative to the swing
/// its interconnect model's detectors observe. Each stress waveform's
/// maximum excursion and 50% last crossing come from a WireProbe of its
/// recipe, with no store lookup (so nothing reaches the bus's sink or
/// counters but probe_fallbacks); only a question no probe can prove is
/// answered by rendering the waveform (CoupledBus::render_fallback).
DieTruth die_truth(const si::CoupledBus& bus, const ShippingLimits& limits);

}  // namespace jsi::scenario

#endif  // JSI_SCENARIO_SWEEP_HPP

#ifndef JSI_SI_PROBE_HPP
#define JSI_SI_PROBE_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "si/detectors.hpp"
#include "si/recipe.hpp"
#include "si/solver_primitives.hpp"
#include "si/waveform.hpp"
#include "sim/time.hpp"

namespace jsi::si {

/// Reads one wire's waveform from its recipe without rendering it.
///
/// `sample(s)` evaluates sample s from the per-sample functions
/// (solver_primitives.hpp), and `render(r)` is `sample(s)` at every s, so
/// a probe reads any rendered sample, bit for bit, for the cost of its
/// few exponentials. The deciders answer the questions a full scan of the
/// rendered waveform answers — the ND and SD verdicts (with the scan's
/// own comparisons) and die_truth's excursion and 50% crossing — from the
/// few samples that decide them:
///
///  * A switching RC wire (`l_wire` 0) runs monotonically from v0 to vf,
///    so every extreme sits at an end, and each threshold crossing is
///    one sample: a closed-form guess checked with its neighbour, or a
///    binary search when the guess is off.
///  * A quiet wire is its rail plus up to two glitches, each unimodal
///    with a closed-form peak. Any evaluated sample that violates proves
///    a violation. An absence is proved piece by piece: between two
///    consecutive peaks (or a peak and a window end) every glitch is
///    monotone, so each piece's samples lie within the sums of the
///    glitches' values at its ends — widened by a margin that covers the
///    rounding of those sums. A piece whose bounds do not clear is split
///    (a search for the peak of two glitches' sum), and one of at most
///    two samples is read exactly.
///
/// A decider returns nullopt when its recipe has no certificate: a
/// ringing (RLC) switching wire, parameters that are not finite, or a
/// quiet wire whose bounds need more than a fixed number of splits. The
/// caller then renders and scans (CoupledBus counts these fallbacks).
///
/// The probe keeps a reference to `r`, which must outlive it.
class WireProbe {
 public:
  WireProbe(const WireRecipe& r, std::size_t samples, sim::Time sample_dt);

  /// Sample s (< samples()) of the rendered waveform.
  double sample(std::size_t s) const;
  double final_sample() const { return sample(samples_ - 1); }

  /// NdCell(p).violates() on the rendered waveform, under the recipe's
  /// driven levels.
  std::optional<bool> nd_violates(const NdParams& p) const;

  /// SdCell(p).violates() on the rendered waveform, under the recipe's
  /// driven levels.
  std::optional<bool> sd_violates(const SdParams& p) const;

  /// WaveformView::last_crossing(level) of the rendered waveform (the
  /// inner optional); the outer one is empty when undecided.
  std::optional<std::optional<sim::Time>> last_crossing(double level) const;

  /// Does some sample lie `limit` or more from `rail`, either way? That
  /// is max(max_value() - rail, rail - min_value()) >= limit on the
  /// rendered waveform.
  std::optional<bool> strays(double rail, double limit) const;

  /// The rounding allowance every bound on this quiet wire carries [V]
  /// (0 for a switching wire, whose deciders bound nothing).
  double margin() const { return margin_; }

 private:
  /// Glitch k's term at (fractional) sample u.
  double term(int k, double u) const;

  /// Is there a sample x with viol(x)? `viol` must be the union of a set
  /// closed upward and a set closed downward (every threshold test of
  /// the scans is).
  template <class Viol>
  std::optional<bool> any_sample(const Viol& viol) const;
  template <class Viol>
  std::optional<bool> quiet_any(const Viol& viol) const;

  /// First s in [0, samples) with pred(s), samples when none; pred must
  /// be false up to some sample and true from it on. `guess` (checked
  /// with its neighbour) saves the binary search when it is right.
  template <class Pred>
  std::size_t first_index(const Pred& pred, std::size_t guess) const;

  /// The closed-form sample at which the RC wire reaches `level`
  /// (rounded up), or samples when it never does inside the window.
  std::size_t guess_index(double level) const;

  /// The single crossing of `level` by a monotone wire.
  std::optional<sim::Time> monotone_crossing(double level) const;

  std::optional<bool> nd_decide(const NdParams& p) const;
  std::optional<bool> sd_decide(const SdParams& p) const;

  const WireRecipe* r_;
  std::size_t samples_;
  sim::Time tick_;  ///< sample_dt in sim ticks
  double dt_;       ///< seconds between samples

  // Switching wires.
  bool ringing_ = false;   ///< underdamped RLC: rendered per rlc_step
  bool monotone_ = false;  ///< an RC step every decider can certify
  detail::Rlc rlc_;

  // Quiet wires.
  int n_glitches_ = 0;
  detail::Glitch glitches_[2];
  double peak_[2] = {0.0, 0.0};  ///< each glitch's peak [samples], clamped
  bool bounded_ = false;         ///< finite glitches with finite peaks
  double margin_ = 0.0;
};

/// A process-wide cross-check of every answer a WireProbe proves: while
/// one is installed, each proved answer (and each store entry's final
/// sample) is compared with a render of its recipe and the reference
/// scan, and the totals are kept here. The test binaries install one for
/// their whole run; nothing else does, and with none installed a probe
/// pays one relaxed atomic load per answer.
struct ProbeAudit {
  std::atomic<std::uint64_t> certified{0};      ///< answers proved
  std::atomic<std::uint64_t> fallbacks{0};      ///< renders to scan instead
  std::atomic<std::uint64_t> disagreements{0};  ///< proved but wrong
  /// Told of each disagreement, with what disagreed ("nd", "sd",
  /// "crossing", "strays", "final") and the recipe; may be null.
  void (*on_disagreement)(const char* what, const WireRecipe& r) = nullptr;
};

/// Install `audit` (nullptr uninstalls). Not synchronized with probes
/// running on other threads: install before they start.
void install_probe_audit(ProbeAudit* audit);

/// The installed audit, or nullptr.
ProbeAudit* probe_audit();

/// The waveform of `r` on a grid of `samples` samples `sample_dt` apart:
/// WireProbe(r, samples, sample_dt).sample(s) at every sample s. The one
/// renderer every model's waveforms come from, and the reference an
/// audit compares against.
Waveform render(const WireRecipe& r, std::size_t samples, sim::Time sample_dt);

/// Record one comparison of a proved answer with its reference.
void audit_answer(ProbeAudit& audit, const char* what, bool agrees,
                  const WireRecipe& r);

}  // namespace jsi::si

#endif  // JSI_SI_PROBE_HPP

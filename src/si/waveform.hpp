#ifndef JSI_SI_WAVEFORM_HPP
#define JSI_SI_WAVEFORM_HPP

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace jsi::si {

/// Non-owning view of a uniformly sampled voltage waveform.
///
/// `CoupledBus::transition_batch` hands out wire samples that live in the
/// bus's waveform store; a `WaveformView` is the 3-word handle (pointer,
/// length, dt) the detectors and metrics scan without copying. It carries
/// the full read-side API of `Waveform`, and a `Waveform` converts to a
/// view implicitly, so every scanning consumer takes a view and accepts
/// both. Lifetime: a view is valid as long as the storage behind it — for
/// `CoupledBus::transition_batch` results see `TransitionBatch`.
class WaveformView {
 public:
  WaveformView() = default;
  WaveformView(const double* data, std::size_t n, sim::Time dt)
      : data_(data), n_(n), dt_(dt) {}

  sim::Time dt() const { return dt_; }
  std::size_t samples() const { return n_; }
  sim::Time duration() const { return dt_ * n_; }
  const double* data() const { return data_; }

  double operator[](std::size_t i) const { return data_[i]; }

  /// Linear interpolation at absolute time `t` (clamped to the ends).
  double at(sim::Time t) const;

  /// Voltage of the last sample (the settled value).
  double final_value() const { return n_ == 0 ? 0.0 : data_[n_ - 1]; }

  double max_value() const;
  double min_value() const;

  /// Earliest time at/after `from` where the waveform rises to >= `level`;
  /// nullopt if it never does.
  std::optional<sim::Time> first_above(double level, sim::Time from = 0) const;

  /// Earliest time at/after `from` where the waveform falls to <= `level`.
  std::optional<sim::Time> first_below(double level, sim::Time from = 0) const;

  /// The *last* time the waveform crosses `level` (in either direction).
  /// This is the signal's settling instant relative to a receiver threshold:
  /// after it, the value stays on the final side of `level`. nullopt if the
  /// waveform never crosses `level`.
  std::optional<sim::Time> last_crossing(double level) const;

  /// CSV dump "t_ps,volts" (for gnuplot / inspection in benches).
  std::string to_csv() const;

 private:
  const double* data_ = nullptr;
  std::size_t n_ = 0;
  sim::Time dt_ = sim::kPs;
};

/// Uniformly sampled analog voltage waveform (owning).
///
/// The coupled-bus solver emits one `Waveform` per wire per bus transition
/// on the scalar path; the ND/SD detector models then scan it for threshold
/// crossings (via its `WaveformView`). Sampling step defaults to 1 ps which
/// comfortably resolves the ~100 ps RC time constants of the modeled
/// interconnects.
class Waveform {
 public:
  Waveform() = default;

  /// `n` samples spaced `dt` apart, all at `init` volts.
  Waveform(std::size_t n, sim::Time dt, double init = 0.0)
      : dt_(dt), v_(n, init) {}

  /// Materialize (copy) a view into an owning waveform.
  explicit Waveform(WaveformView v)
      : dt_(v.dt()), v_(v.data(), v.data() + v.samples()) {}

  sim::Time dt() const { return dt_; }
  std::size_t samples() const { return v_.size(); }
  sim::Time duration() const { return dt_ * v_.size(); }

  double& operator[](std::size_t i) { return v_[i]; }
  double operator[](std::size_t i) const { return v_[i]; }

  const double* data() const { return v_.data(); }
  double* data() { return v_.data(); }

  /// Non-owning view of this waveform (valid while *this is alive and
  /// unmodified). The implicit conversion lets owning waveforms flow into
  /// every view-taking scanner unchanged.
  WaveformView view() const { return WaveformView(v_.data(), v_.size(), dt_); }
  operator WaveformView() const { return view(); }

  /// Linear interpolation at absolute time `t` (clamped to the ends).
  double at(sim::Time t) const { return view().at(t); }

  /// Voltage of the last sample (the settled value).
  double final_value() const { return v_.empty() ? 0.0 : v_.back(); }

  double max_value() const { return view().max_value(); }
  double min_value() const { return view().min_value(); }

  /// Earliest time at/after `from` where the waveform rises to >= `level`;
  /// nullopt if it never does.
  std::optional<sim::Time> first_above(double level, sim::Time from = 0) const {
    return view().first_above(level, from);
  }

  /// Earliest time at/after `from` where the waveform falls to <= `level`.
  std::optional<sim::Time> first_below(double level, sim::Time from = 0) const {
    return view().first_below(level, from);
  }

  /// The *last* time the waveform crosses `level` (in either direction);
  /// see WaveformView::last_crossing.
  std::optional<sim::Time> last_crossing(double level) const {
    return view().last_crossing(level);
  }

  /// Add `other` sample-by-sample (same dt required; shorter one is
  /// implicitly extended by its final value).
  Waveform& operator+=(const Waveform& other);

  /// Add a constant to every sample.
  Waveform& offset(double dv);

  /// CSV dump "t_ps,volts" (for gnuplot / inspection in benches).
  std::string to_csv() const { return view().to_csv(); }

 private:
  sim::Time dt_ = sim::kPs;
  std::vector<double> v_;
};

}  // namespace jsi::si

#endif  // JSI_SI_WAVEFORM_HPP

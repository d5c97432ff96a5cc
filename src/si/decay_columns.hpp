#ifndef JSI_SI_DECAY_COLUMNS_HPP
#define JSI_SI_DECAY_COLUMNS_HPP

#include <cstddef>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "si/bus_model.hpp"
#include "sim/time.hpp"

namespace jsi::si {

/// The decay columns of one bus geometry: for a time constant `tau`, the
/// column e[s] = exp(-t / tau) with t = dt * s over the bus's samples.
///
/// `render` reads its RC and glitch exponentials from here instead of
/// calling std::exp per sample. A column is computed once per distinct
/// `tau` by the `decay_column` solver primitive and kept under `tau`'s
/// exact bit pattern, so every read equals the per-sample
/// std::exp(-t / tau) bit for bit. A `CoupledBus` keeps one table beside
/// its waveform store and bounds both together; a table whose limit was
/// never set (the direct-render reference in tests and benches) keeps
/// every column.
class DecayColumns {
 public:
  /// A table for buses with `p`'s sample count and sample step.
  explicit DecayColumns(const BusParams& p);

  /// The decay column of `tau`, computed on first use. A kept column is
  /// valid until clear() or destruction: each has its own heap buffer,
  /// so later insertions never move it. A column past the limit is not
  /// kept; it is computed into one of two scratch buffers, alternating,
  /// and is valid until the second unkept column after it — so the two
  /// columns one glitch reads stay valid together.
  const double* column(double tau);

  /// Keep a new column only while fewer than `max_kept` are kept.
  void set_limit(std::size_t max_kept) { limit_ = max_kept; }

  /// Column length and time step: the bus's `samples` and `sample_dt`.
  std::size_t samples() const { return samples_; }
  sim::Time sample_dt() const { return sample_dt_; }

  /// Columns kept.
  std::size_t size() const { return kept_.size(); }

  /// Drop every kept column.
  void clear() { kept_.clear(); }

 private:
  std::size_t samples_;
  sim::Time sample_dt_;
  std::size_t limit_ = std::numeric_limits<std::size_t>::max();
  std::unordered_map<std::uint64_t, std::vector<double>> kept_;
  std::vector<double> scratch_[2];
  std::size_t next_scratch_ = 0;
};

}  // namespace jsi::si

#endif  // JSI_SI_DECAY_COLUMNS_HPP

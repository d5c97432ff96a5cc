#include "si/decay_columns.hpp"

#include <bit>
#include <utility>

#include "si/solver_primitives.hpp"

namespace jsi::si {

DecayColumns::DecayColumns(const BusParams& p)
    : samples_(p.samples), sample_dt_(p.sample_dt) {}

const double* DecayColumns::column(double tau) {
  const auto key = std::bit_cast<std::uint64_t>(tau);
  if (const auto it = kept_.find(key); it != kept_.end()) {
    return it->second.data();
  }
  if (kept_.size() >= limit_) {
    std::vector<double>& scratch = scratch_[next_scratch_];
    next_scratch_ ^= 1;
    scratch.resize(samples_);
    detail::decay_column(samples_, sample_dt_, tau, scratch.data());
    return scratch.data();
  }
  std::vector<double> col(samples_);
  detail::decay_column(samples_, sample_dt_, tau, col.data());
  return kept_.emplace(key, std::move(col)).first->second.data();
}

}  // namespace jsi::si

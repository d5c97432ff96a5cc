#include "si/bus_model.hpp"

#include <stdexcept>

#include "si/model.hpp"

namespace jsi::si {

BusModel::BusModel(BusParams p) : p_(p) {
  if (p_.n_wires == 0) throw std::invalid_argument("bus needs >= 1 wire");
  if (p_.samples < 2) throw std::invalid_argument("bus needs >= 2 samples");
  model_for(p_.model).validate(p_);
  couple_.assign(p_.n_wires > 0 ? p_.n_wires - 1 : 0, p_.c_couple);
  extra_r_.assign(p_.n_wires, 0.0);
  rebuild_derived();
}

void BusModel::rebuild_derived() {
  resistance_.resize(p_.n_wires);
  total_cap_.resize(p_.n_wires);
  for (std::size_t i = 0; i < p_.n_wires; ++i) {
    resistance_[i] = p_.r_driver + p_.r_wire + extra_r_[i];
    double c = p_.c_ground;
    if (i > 0) c += couple_[i - 1];
    if (i + 1 < p_.n_wires) c += couple_[i];
    total_cap_[i] = c;
  }
}

void BusModel::scale_coupling(std::size_t pair, double factor) {
  couple_.at(pair) *= factor;
  rebuild_derived();
}

void BusModel::add_series_resistance(std::size_t wire, double ohms) {
  extra_r_.at(wire) += ohms;
  rebuild_derived();
}

void BusModel::inject_crosstalk_defect(std::size_t wire, double severity) {
  if (severity < 1.0) throw std::invalid_argument("severity must be >= 1");
  if (wire > 0) scale_coupling(wire - 1, severity);
  if (wire + 1 < p_.n_wires) scale_coupling(wire, severity);
  // Weak holding driver scales with defect severity; calibrated so that
  // severity ~5 crosses the default ND vulnerable-region threshold.
  add_series_resistance(wire, (severity - 1.0) * 400.0);
}

void BusModel::clear_defects() {
  couple_.assign(couple_.size(), p_.c_couple);
  extra_r_.assign(p_.n_wires, 0.0);
  rebuild_derived();
}

double BusModel::coupling(std::size_t pair) const { return couple_.at(pair); }

double BusModel::resistance(std::size_t wire) const {
  if (wire >= p_.n_wires) throw std::out_of_range("bad wire");
  return resistance_[wire];
}

double BusModel::total_cap(std::size_t wire) const {
  if (wire >= p_.n_wires) throw std::out_of_range("bad wire");
  return total_cap_[wire];
}

double BusModel::self_tau(std::size_t wire) const {
  return resistance(wire) * total_cap(wire);
}

sim::Time BusModel::nominal_delay(std::size_t wire) const {
  if (wire >= p_.n_wires) throw std::out_of_range("bad wire");
  double c = p_.c_ground;
  if (wire > 0) c += p_.c_couple;
  if (wire + 1 < p_.n_wires) c += p_.c_couple;
  const double tau = (p_.r_driver + p_.r_wire) * c;
  return model_for(p_.model).nominal_delay(p_, tau);
}

}  // namespace jsi::si

#include "si/detectors.hpp"

#include <cmath>

namespace jsi::si {

using util::Logic;

namespace {
/// Settled logic level of the waveform (vdd/2 threshold).
Logic settled(WaveformView w, double vdd) {
  return util::to_logic(w.final_value() >= vdd / 2.0);
}
}  // namespace

bool NdCell::violates(WaveformView w, Logic initial,
                      Logic expected) const {
  const double arm = p_.v_hthr_frac * p_.vdd;
  const double release = p_.v_hmin_frac * p_.vdd;
  const double out_band = p_.overshoot_frac * p_.vdd;

  if (initial == expected) {
    // Quiet wire: any excursion from its driven rail by >= V_Hthr is
    // noise — toward the opposite rail (logic hazard) or beyond the rail
    // (overshoot/undershoot stressing the receiver). A slowly developing
    // level error is just the long-duration limit of the same check.
    const double rail = util::to_bool(expected) ? p_.vdd : 0.0;
    for (std::size_t s = 0; s < w.samples(); ++s) {
      const double dev = w[s] - rail;
      const double inward = util::to_bool(expected) ? -dev : dev;
      if (inward >= arm) return true;                // toward opposite rail
      if (-inward >= out_band && out_band > 0.0) return true;  // outward
    }
    return false;
  }

  // Switching wire: the monotone transit through the vulnerable band is
  // legitimate. Noise = leaving the destination-rail band again after
  // first reaching it (ringing), overshooting beyond the rail, or never
  // settling at the driven level at all.
  if (settled(w, p_.vdd) != expected) return true;
  const double dest = util::to_bool(expected) ? p_.vdd : 0.0;
  bool reached = false;
  for (std::size_t s = 0; s < w.samples(); ++s) {
    const double dev_in = util::to_bool(expected) ? dest - w[s] : w[s] - dest;
    // dev_in > 0: still short of the rail; dev_in < 0: beyond the rail.
    if (!reached) {
      if (std::abs(dev_in) <= release) reached = true;
    } else {
      if (dev_in >= arm) return true;  // fell back toward the old rail
    }
    if (-dev_in >= out_band && out_band > 0.0) return true;  // over/undershoot
  }
  return false;
}

std::optional<sim::Time> SdCell::arrival_time(WaveformView w) const {
  return w.last_crossing(p_.vth_frac * p_.vdd);
}

bool SdCell::violates(WaveformView w, Logic initial,
                      Logic expected) const {
  if (initial == expected) return false;  // quiet wire: ND territory
  if (settled(w, p_.vdd) != expected) return true;  // never arrives
  const auto t = arrival_time(w);
  if (!t.has_value()) return true;  // no committed crossing inside window
  return *t > p_.skew_budget;
}

}  // namespace jsi::si

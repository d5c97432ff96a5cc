#include "si/probe.hpp"

#include <algorithm>
#include <cmath>

namespace jsi::si {

namespace {

std::atomic<ProbeAudit*> g_audit{nullptr};

/// The most end points a quiet wire's pieces may have (the window ends
/// and peaks included) before the search gives up and the wire is
/// rendered instead.
constexpr std::size_t kMaxPoints = 64;

/// A bound's margin, relative to the magnitudes one quiet sample sums:
/// the rail, and each glitch's amplitude times its scale. A computed
/// sample or bound differs from the exact value by a few ulps of those
/// (the decays, and their difference, are within 2^-50 absolute), so
/// 2^-30 covers them a millionfold.
constexpr double kMarginRel = 0x1p-30;

/// An RC wire certifies only when one sample step is at least this
/// share of its tau: consecutive decays then differ by far more than an
/// ulp, so the computed samples are monotone like the exact ones.
constexpr double kMinStepOverTau = 0x1p-40;

util::Logic level(std::uint64_t bit) { return util::to_logic(bit != 0); }

}  // namespace

WireProbe::WireProbe(const WireRecipe& r, std::size_t samples,
                     sim::Time sample_dt)
    : r_(&r),
      samples_(samples),
      tick_(sample_dt),
      dt_(detail::step_seconds(sample_dt)) {
  if (r.switches()) {
    if (r.l_wire > 0.0) {
      rlc_ = detail::rlc_of(r.r, r.c_tot, r.l_wire);
      ringing_ = rlc_.zeta < 1.0;
    }
    monotone_ = !(r.l_wire > 0.0) && r.tau > 0.0 && std::isfinite(r.tau) &&
                dt_ / r.tau >= kMinStepOverTau && std::isfinite(r.v0) &&
                std::isfinite(r.vf);
    return;
  }
  for (const RecipeAggressor& a : r.aggressors) {
    if (a.direction == 0) break;  // packed from the front, as render reads
    glitches_[n_glitches_++] =
        detail::glitch_of(a.swing, a.cc, r.c_tot, r.tau, a.tau,
                          static_cast<int>(a.direction));
  }
  bounded_ = std::isfinite(r.v0) && r.tau > 0.0 && std::isfinite(r.tau);
  double magnitude = std::abs(r.v0);
  const double last = static_cast<double>(samples_ - 1);
  for (int k = 0; k < n_glitches_; ++k) {
    const detail::Glitch& g = glitches_[k];
    // Each glitch peaks where its two exponentials' slopes meet: at
    // tau_v*tau_a*ln(tau_v/tau_a)/(tau_v - tau_a), or at tau_v when the
    // time constants coincide.
    const double t_peak =
        g.equal ? g.tau_v
                : std::log(g.tau_v / g.tau_a) *
                      (g.tau_v * g.tau_a / (g.tau_v - g.tau_a));
    const double u = t_peak / dt_;
    bounded_ = bounded_ && g.tau_a > 0.0 && std::isfinite(g.tau_a) &&
               std::isfinite(g.amp) && std::isfinite(g.scale) && u >= 0.0;
    peak_[k] = std::min(u, last);
    magnitude += std::abs(g.amp) * (1.0 + std::abs(g.scale));
  }
  margin_ = n_glitches_ > 0 ? magnitude * kMarginRel : 0.0;
}

double WireProbe::sample(std::size_t s) const {
  const WireRecipe& r = *r_;
  const double t = dt_ * static_cast<double>(s);
  if (r.switches()) {
    if (ringing_) return detail::rlc_step(r.v0, r.vf, rlc_, t);
    return detail::rc_step(r.v0, r.vf, detail::decay_at(dt_, s, r.tau));
  }
  double acc = r.v0;
  if (n_glitches_ == 0) return acc;
  const double ev = detail::decay_at(dt_, s, r.tau);
  for (int k = 0; k < n_glitches_; ++k) {
    const detail::Glitch& g = glitches_[k];
    const double ea = g.equal ? 0.0 : detail::decay_at(dt_, s, g.tau_a);
    acc = detail::add_glitch_term(acc, g, detail::glitch_shape(g, t, ev, ea));
  }
  return acc;
}

double WireProbe::term(int k, double u) const {
  const detail::Glitch& g = glitches_[k];
  const double t = dt_ * u;
  const double ev = std::exp(-t / g.tau_v);
  const double ea = g.equal ? 0.0 : std::exp(-t / g.tau_a);
  return g.amp * detail::glitch_shape(g, t, ev, ea);
}

template <class Viol>
std::optional<bool> WireProbe::any_sample(const Viol& viol) const {
  if (!r_->switches()) return quiet_any(viol);
  // A monotone wire's samples all lie between its two ends.
  if (!monotone_) return std::nullopt;
  return viol(sample(0)) || viol(final_sample());
}

template <class Viol>
std::optional<bool> WireProbe::quiet_any(const Viol& viol) const {
  const WireRecipe& r = *r_;
  // Without a switching neighbour every sample is the rail.
  if (n_glitches_ == 0) return viol(r.v0);
  if (!bounded_) return std::nullopt;
  // The samples that decide most wires: the window's ends and the two
  // around each glitch's peak.
  if (viol(sample(0)) || viol(final_sample())) return true;
  for (int k = 0; k < n_glitches_; ++k) {
    const auto s = static_cast<std::size_t>(peak_[k]);
    if (viol(sample(s)) || (s + 1 < samples_ && viol(sample(s + 1)))) {
      return true;
    }
  }

  // No sample violates: prove it piece by piece. The pieces' end points
  // start as the window ends and the peaks, so no glitch peaks inside a
  // piece and each is monotone across it.
  struct Point {
    double u;
    double h[2];
  };
  const auto at = [&](double u) {
    Point p{u, {0.0, 0.0}};
    for (int k = 0; k < n_glitches_; ++k) p.h[k] = term(k, u);
    return p;
  };
  double starts[4] = {0.0, peak_[0], peak_[n_glitches_ - 1],
                      static_cast<double>(samples_ - 1)};
  std::sort(starts, starts + 4);
  Point pts[kMaxPoints];
  std::size_t n = 0;
  for (const double u : starts) {
    if (n == 0 || u > pts[n - 1].u) pts[n++] = at(u);
  }
  std::size_t j = 0;
  while (j + 1 < n) {
    const double first = std::ceil(pts[j].u);
    const double last = std::floor(pts[j + 1].u);
    if (first > last) {  // no sample inside this piece
      ++j;
      continue;
    }
    double hi = r.v0;
    double lo = r.v0;
    for (int k = 0; k < n_glitches_; ++k) {
      hi += std::max(pts[j].h[k], pts[j + 1].h[k]);
      lo += std::min(pts[j].h[k], pts[j + 1].h[k]);
    }
    if (!viol(hi + margin_) && !viol(lo - margin_)) {
      ++j;
      continue;
    }
    const auto a = static_cast<std::size_t>(first);
    const auto b = static_cast<std::size_t>(last);
    if (b - a <= 1) {  // read the piece's one or two samples
      if (viol(sample(a)) || viol(sample(b))) return true;
      ++j;
      continue;
    }
    if (n == kMaxPoints) return std::nullopt;
    // Split at a sample strictly inside and bound both halves.
    std::move_backward(pts + j + 1, pts + n, pts + n + 1);
    pts[j + 1] = at(static_cast<double>(a + (b - a) / 2));
    ++n;
  }
  return false;
}

template <class Pred>
std::size_t WireProbe::first_index(const Pred& pred,
                                   std::size_t guess) const {
  // The answer lies in [lo, hi]; pred(hi) holds unless hi == samples_.
  std::size_t lo = 0;
  std::size_t hi = samples_;
  if (guess < samples_) {
    if (pred(guess)) {
      if (guess == 0 || !pred(guess - 1)) return guess;
      hi = guess - 1;
    } else {
      lo = guess + 1;
    }
  }
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (pred(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

std::size_t WireProbe::guess_index(double level) const {
  const WireRecipe& r = *r_;
  // vf + (v0 - vf) * exp(-t/tau) == level at t = tau*ln((v0-vf)/(level-vf)).
  const double s = r.tau * std::log((r.v0 - r.vf) / (level - r.vf)) / dt_;
  if (!(s >= 0.0 && s < static_cast<double>(samples_))) return samples_;
  return static_cast<std::size_t>(std::ceil(s));
}

std::optional<sim::Time> WireProbe::monotone_crossing(double level) const {
  const bool above_at_end = final_sample() >= level;
  if ((sample(0) >= level) == above_at_end) return std::nullopt;
  const std::size_t c = first_index(
      [&](std::size_t s) { return (sample(s) >= level) == above_at_end; },
      guess_index(level));
  return tick_ * c;
}

std::optional<bool> WireProbe::nd_decide(const NdParams& p) const {
  const WireRecipe& r = *r_;
  const double arm = p.v_hthr_frac * p.vdd;
  const double release = p.v_hmin_frac * p.vdd;
  const double out_band = p.overshoot_frac * p.vdd;
  const bool high = r.next_level != 0;
  if (!r.switches()) {
    const double rail = high ? p.vdd : 0.0;
    return quiet_any([&](double x) {
      const double dev = x - rail;
      const double inward = high ? -dev : dev;
      return inward >= arm || (-inward >= out_band && out_band > 0.0);
    });
  }
  if (!monotone_) return std::nullopt;
  const double last = final_sample();
  if (util::to_logic(last >= p.vdd / 2.0) != util::to_logic(high)) {
    return true;  // never settles at the driven level
  }
  const double dest = high ? p.vdd : 0.0;
  const auto dev_in = [&](double x) { return high ? dest - x : x - dest; };
  // Over/undershoot: dev_in runs monotonically, so -dev_in is largest at
  // one of the ends.
  if (out_band > 0.0 &&
      (-dev_in(sample(0)) >= out_band || -dev_in(last) >= out_band)) {
    return true;
  }
  // Ringing: after the first sample inside `release`, a sample at `arm`
  // or more short of the rail. Moving toward the rail (the wires every
  // model builds), dev_in only falls after that sample, so it can reach
  // `arm` only when arm <= release, and is largest on the next sample.
  const bool toward = high ? r.vf >= r.v0 : r.vf <= r.v0;
  if (toward && arm > release) return false;
  const std::size_t reach = first_index(
      [&](std::size_t s) {
        const double d = dev_in(sample(s));
        return toward ? d <= release : d >= -release;
      },
      guess_index(toward == high ? dest - release : dest + release));
  if (reach + 1 >= samples_ || !(std::abs(dev_in(sample(reach))) <= release)) {
    return false;  // never inside the band, or nothing after it
  }
  return dev_in(toward ? sample(reach + 1) : last) >= arm;
}

std::optional<bool> WireProbe::sd_decide(const SdParams& p) const {
  const WireRecipe& r = *r_;
  if (!r.switches()) return false;  // quiet wire: ND territory
  if (!monotone_) return std::nullopt;
  if (util::to_logic(final_sample() >= p.vdd / 2.0) !=
      util::to_logic(r.next_level != 0)) {
    return true;  // never arrives
  }
  const std::optional<sim::Time> t = monotone_crossing(p.vth_frac * p.vdd);
  if (!t.has_value()) return true;
  return *t > p.skew_budget;
}

std::optional<bool> WireProbe::nd_violates(const NdParams& p) const {
  const std::optional<bool> v = nd_decide(p);
  if (ProbeAudit* a = probe_audit(); a != nullptr && v.has_value()) {
    audit_answer(*a, "nd",
                 *v == NdCell(p).violates(render(*r_, samples_, tick_),
                                          level(r_->prev_level),
                                          level(r_->next_level)),
                 *r_);
  }
  return v;
}

std::optional<bool> WireProbe::sd_violates(const SdParams& p) const {
  const std::optional<bool> v = sd_decide(p);
  if (ProbeAudit* a = probe_audit(); a != nullptr && v.has_value()) {
    audit_answer(*a, "sd",
                 *v == SdCell(p).violates(render(*r_, samples_, tick_),
                                          level(r_->prev_level),
                                          level(r_->next_level)),
                 *r_);
  }
  return v;
}

std::optional<std::optional<sim::Time>> WireProbe::last_crossing(
    double level) const {
  if (!r_->switches() || !monotone_) return std::nullopt;
  const std::optional<sim::Time> t = monotone_crossing(level);
  if (ProbeAudit* a = probe_audit(); a != nullptr) {
    audit_answer(*a, "crossing",
                 t == render(*r_, samples_, tick_).last_crossing(level), *r_);
  }
  return t;
}

std::optional<bool> WireProbe::strays(double rail, double limit) const {
  const std::optional<bool> v = any_sample(
      [&](double x) { return x - rail >= limit || rail - x >= limit; });
  if (ProbeAudit* a = probe_audit(); a != nullptr && v.has_value()) {
    const Waveform w = render(*r_, samples_, tick_);
    audit_answer(
        *a, "strays",
        *v == (std::max(w.max_value() - rail, rail - w.min_value()) >= limit),
        *r_);
  }
  return v;
}

Waveform render(const WireRecipe& r, std::size_t samples,
                sim::Time sample_dt) {
  const WireProbe p(r, samples, sample_dt);
  Waveform w(samples, sample_dt);
  for (std::size_t s = 0; s < samples; ++s) w[s] = p.sample(s);
  return w;
}

void install_probe_audit(ProbeAudit* audit) {
  g_audit.store(audit, std::memory_order_relaxed);
}

ProbeAudit* probe_audit() { return g_audit.load(std::memory_order_relaxed); }

void audit_answer(ProbeAudit& audit, const char* what, bool agrees,
                  const WireRecipe& r) {
  audit.certified.fetch_add(1, std::memory_order_relaxed);
  if (agrees) return;
  audit.disagreements.fetch_add(1, std::memory_order_relaxed);
  if (audit.on_disagreement != nullptr) audit.on_disagreement(what, r);
}

}  // namespace jsi::si

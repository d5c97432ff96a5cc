// The interconnect-model seam (si/model.hpp): registry round-trips, the
// per-model store==direct-render bit-for-bit differential contract
// (across widths, stacked defects and clones), `render(recipe(...))` (and
// so WireProbe's samples) against the per-sample closed forms it evaluates,
// low_swing electricals and parameter validation, the model-aware
// require_width diagnostic, and si::same_params — the predicate gating
// prototype clones in campaigns and sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "core/soc.hpp"
#include "mafm/fault.hpp"
#include "si/bus.hpp"
#include "si/model.hpp"
#include "si/solver_primitives.hpp"
#include "util/prng.hpp"

namespace jsi::si {
namespace {

BusParams params_for(ModelKind kind, std::size_t n, std::size_t samples = 512) {
  BusParams p;
  p.model = kind;
  p.n_wires = n;
  p.samples = samples;
  return p;
}

std::vector<mafm::VectorPair> ma_pairs(std::size_t n) {
  std::vector<mafm::VectorPair> pairs;
  for (const mafm::MaFault f : mafm::kAllFaults) {
    for (std::size_t victim = 0; victim < n; ++victim) {
      pairs.push_back(mafm::vectors_for(f, n, victim));
    }
  }
  return pairs;
}

/// The differential pin: every sample of every wire of every MA
/// transition `batched` renders on demand, and each batch entry's final
/// sample, must equal the model's recipe rendered directly on an
/// electrically identical `BusModel`, bit-for-bit.
void expect_batched_equals_scalar(CoupledBus& batched, const BusModel& scalar,
                                  const std::string& tag) {
  const std::size_t n = batched.n();
  const std::size_t samples = batched.params().samples;
  const InterconnectModel& solver = model_for(scalar.params().model);
  for (const mafm::VectorPair& vp : ma_pairs(n)) {
    const std::vector<Waveform> rendered = batched.transition(vp.v1, vp.v2);
    const TransitionBatch b = batched.transition_batch(vp.v1, vp.v2);
    for (std::size_t i = 0; i < n; ++i) {
      const Waveform ref = render(solver.recipe(scalar, i, vp.v1, vp.v2),
                                  samples, scalar.params().sample_dt);
      ASSERT_EQ(std::memcmp(rendered[i].data(), ref.data(),
                            samples * sizeof(double)),
                0)
          << tag << ": wire " << i;
      ASSERT_EQ(b.entry(i).final_sample, ref.final_value())
          << tag << ": wire " << i;
    }
  }
}

// ---- registry ---------------------------------------------------------------

TEST(ModelRegistry, NamesRoundTrip) {
  EXPECT_STREQ(model_kind_name(ModelKind::RcFullSwing), "rc_full_swing");
  EXPECT_STREQ(model_kind_name(ModelKind::LowSwing), "low_swing");
  for (const ModelKind kind : kAllModelKinds) {
    ModelKind parsed{};
    ASSERT_TRUE(model_kind_from_name(model_kind_name(kind), parsed));
    EXPECT_EQ(parsed, kind);
    EXPECT_STREQ(model_for(kind).name(), model_kind_name(kind));
    EXPECT_EQ(model_for(kind).kind(), kind);
  }
  ModelKind parsed{};
  EXPECT_FALSE(model_kind_from_name("cml", parsed));
  EXPECT_FALSE(model_kind_from_name("", parsed));
}

// ---- batched == scalar, per model ------------------------------------------

TEST(ModelDifferential, CleanBusAcrossWidths) {
  for (const ModelKind kind : kAllModelKinds) {
    for (const std::size_t n : {2u, 3u, 8u, 16u, 32u}) {
      BusParams p = params_for(kind, n, n >= 16 ? 128 : 512);
      CoupledBus batched(p);
      batched.warm_ma_pairs();
      const BusModel scalar(p);
      expect_batched_equals_scalar(
          batched, scalar,
          std::string(model_kind_name(kind)) + " n=" + std::to_string(n));
    }
  }
}

TEST(ModelDifferential, StackedDefectsAndClone) {
  for (const ModelKind kind : kAllModelKinds) {
    const std::string name = model_kind_name(kind);
    BusParams p = params_for(kind, 8);
    CoupledBus batched(p);
    batched.warm_ma_pairs();
    BusModel scalar(p);

    // Stack a crosstalk defect on top of a resistive one; apply the
    // identical mutations to the reference so the electrical state
    // stays twinned through each generation bump.
    batched.add_series_resistance(2, 350.0);
    batched.inject_crosstalk_defect(5, 4.0);
    scalar.add_series_resistance(2, 350.0);
    scalar.inject_crosstalk_defect(5, 4.0);
    expect_batched_equals_scalar(batched, scalar, name + " defective");

    // A clone of the warmed defective bus must serve the same bits.
    CoupledBus copy = batched.clone();
    expect_batched_equals_scalar(copy, scalar, name + " post-clone");
  }
}

// ---- solver == per-sample closed forms --------------------------------------

/// Wire i's waveform for prev -> next from the per-sample expressions,
/// written out with std::exp on every sample.
/// Counts the glitches that took the equal-time-constant limit.
std::vector<double> closed_form(const BusModel& m, std::size_t i,
                                const util::BitVec& prev,
                                const util::BitVec& next,
                                std::size_t& equal_glitches) {
  const BusParams& p = m.params();
  const bool low_swing = p.model == ModelKind::LowSwing;
  const double high = low_swing ? p.vdd * p.swing_frac : p.vdd;
  const double dt = static_cast<double>(p.sample_dt) * 1e-12;
  // low_swing slows rising edges by 1/swing_frac.
  const auto tau_of = [&](std::size_t j) {
    const double tau = detail::switching_tau(m, j, prev, next);
    return low_swing && !prev[j] && next[j] ? tau / p.swing_frac : tau;
  };
  std::vector<double> w(p.samples);
  if (prev[i] != next[i]) {
    const double tau = tau_of(i);
    const double v0 = prev[i] ? high : 0.0;
    const double vf = next[i] ? high : 0.0;
    if (p.l_wire > 0.0) {
      const double r = m.resistance_data()[i];
      const double c = m.total_cap_data()[i];
      const double w0 = 1.0 / std::sqrt(p.l_wire * c);
      const double zeta = r / 2.0 * std::sqrt(c / p.l_wire);
      if (zeta < 1.0) {
        const double wd = w0 * std::sqrt(1.0 - zeta * zeta);
        const double k = zeta / std::sqrt(1.0 - zeta * zeta);
        for (std::size_t s = 0; s < p.samples; ++s) {
          const double t = dt * static_cast<double>(s);
          const double e = std::exp(-zeta * w0 * t);
          w[s] =
              vf + (v0 - vf) * e * (std::cos(wd * t) + k * std::sin(wd * t));
        }
        return w;
      }
    }
    for (std::size_t s = 0; s < p.samples; ++s) {
      const double t = dt * static_cast<double>(s);
      w[s] = vf + (v0 - vf) * std::exp(-t / tau);
    }
    return w;
  }
  std::fill(w.begin(), w.end(), prev[i] ? high : 0.0);
  const double ctot_v = m.total_cap_data()[i];
  const double tau_v = m.resistance_data()[i] * ctot_v;
  const auto glitch = [&](std::size_t j, double cc) {
    const int dj = (next[j] ? 1 : 0) - (prev[j] ? 1 : 0);
    if (dj == 0) return;
    const double tau_a = tau_of(j);
    const double amp = dj * high * cc / ctot_v;
    const bool equal = std::abs(tau_v - tau_a) < 1e-15;
    const double scale = equal ? 0.0 : tau_v / (tau_v - tau_a);
    equal_glitches += equal ? 1 : 0;
    for (std::size_t s = 0; s < p.samples; ++s) {
      const double t = dt * static_cast<double>(s);
      const double g =
          equal ? (t / tau_v) * std::exp(-t / tau_v)
                : scale * (std::exp(-t / tau_v) - std::exp(-t / tau_a));
      w[s] += amp * g;
    }
  };
  if (i > 0) glitch(i - 1, m.coupling_data()[i - 1]);
  if (i + 1 < p.n_wires) glitch(i + 1, m.coupling_data()[i]);
  return w;
}

TEST(ModelDifferential, SolveWireEqualsThePerSampleClosedForms) {
  // The store-vs-direct suites compare two renders of the same recipes,
  // which a recipe built from the wrong inputs or glitches added in
  // another order would pass. Here every sample of `render(recipe(...))`
  // is pinned against the closed forms, directly and through a clone of a
  // warm bus that renders its own misses on demand. `render` reads every
  // sample through WireProbe::sample, so this pins the probes' samples
  // too.
  std::size_t equal_glitches[std::size(kAllModelKinds)] = {};
  for (const ModelKind kind : kAllModelKinds) {
    for (const double l_wire : {0.0, 20e-9}) {
      for (const std::size_t n : {2u, 3u, 8u, 64u}) {
        SCOPED_TRACE(::testing::Message() << model_kind_name(kind)
                                          << " n=" << n << " l=" << l_wire);
        BusParams p = params_for(kind, n, 128);
        p.l_wire = l_wire;
        BusModel m(p);
        CoupledBus source(p);
        // Stacked defects, and an asymmetric coupling on pair 0: a quiet
        // wire 1 then takes two unequal glitches, which the closed form
        // adds left then right.
        const auto stack_defects = [n](auto& b) {
          b.inject_crosstalk_defect(n / 2, 6.0);
          b.add_series_resistance(n / 2, 400.0);
          b.add_series_resistance(n - 1, 900.0);
          b.scale_coupling(0, 2.5);
        };
        stack_defects(m);
        stack_defects(source);

        // The clone's store was warmed by the MA traffic; the lone
        // aggressors (every wire rising, then falling, alone — beside a
        // quiet interior wire that is the equal-tau limit) and random
        // pairs then miss it.
        const std::vector<mafm::VectorPair> ma = ma_pairs(n);
        std::vector<mafm::VectorPair> traffic = ma;
        for (std::size_t k = 0; k < n; ++k) {
          util::BitVec quiet(n);
          util::BitVec alone(n);
          alone.set(k, true);
          traffic.push_back({quiet, alone});
          traffic.push_back({alone, quiet});
        }
        util::Prng rng(0xDECA7u + n);
        for (int k = 0; k < 16; ++k) {
          util::BitVec a(n);
          util::BitVec b(n);
          for (std::size_t i = 0; i < n; ++i) {
            a.set(i, rng.next_bool());
            b.set(i, rng.next_bool());
          }
          traffic.push_back({a, b});
        }
        for (const mafm::VectorPair& vp : ma) {
          source.transition(vp.v1, vp.v2);
        }
        ASSERT_GT(source.cache_entries(), 0u);
        CoupledBus carried = source.clone();

        const InterconnectModel& solver = model_for(kind);
        const auto same = [](const double* a, const std::vector<double>& b) {
          return std::memcmp(a, b.data(), b.size() * sizeof(double)) == 0;
        };
        for (std::size_t k = 0; k < traffic.size(); ++k) {
          const mafm::VectorPair& vp = traffic[k];
          const std::vector<Waveform> served =
              carried.transition(vp.v1, vp.v2);
          for (std::size_t i = 0; i < n; ++i) {
            const std::vector<double> want =
                closed_form(m, i, vp.v1, vp.v2,
                            equal_glitches[static_cast<std::size_t>(kind)]);
            const WireRecipe r = solver.recipe(m, i, vp.v1, vp.v2);
            ASSERT_TRUE(same(render(r, p.samples, p.sample_dt).data(), want))
                << "direct, pair " << k << " wire " << i;
            ASSERT_TRUE(same(served[i].data(), want)) << "clone, pair " << k
                                                        << " wire " << i;
          }
        }
      }
    }
  }
  for (const ModelKind kind : kAllModelKinds) {
    EXPECT_GT(equal_glitches[static_cast<std::size_t>(kind)], 0u)
        << model_kind_name(kind) << " never reached the equal-tau limit";
  }
}

// ---- low_swing electricals --------------------------------------------------

TEST(LowSwingModel, RailsThresholdsAndSwing) {
  const BusParams p = params_for(ModelKind::LowSwing, 4);
  const InterconnectModel& im = model_for(ModelKind::LowSwing);
  // Defaults: vdd 1.8, swing_frac 0.25, receiver_vt_frac 0.2.
  EXPECT_DOUBLE_EQ(im.high_rail(p), 0.45);
  EXPECT_DOUBLE_EQ(im.observed_swing(p), 0.45);
  EXPECT_DOUBLE_EQ(im.settled_threshold(p), 0.36);

  // A quiet-high wire sits at the reduced rail, not at vdd.
  CoupledBus bus(p);
  const mafm::VectorPair vp = mafm::vectors_for(mafm::MaFault::Rs, 4, 1);
  double peak = 0.0;
  for (const Waveform& w : bus.transition(vp.v1, vp.v2)) {
    peak = std::max(peak, w.max_value());
  }
  EXPECT_LT(peak, 0.45 * 1.5) << "no wire may stray far above the reduced "
                                 "rail (coupling overshoot only)";
  EXPECT_GT(peak, 0.40) << "the victim must actually reach the rail";
}

TEST(LowSwingModel, RisesSlowerThanItFalls) {
  // The repeaterless low-swing driver charges through the same RC but
  // only detects at receiver_vt_frac * vdd after the 1/swing_frac tau
  // stretch — its rising nominal delay must exceed the full-swing
  // bus's, and the 30 ps receiver delay rides on top.
  const BusParams rc = params_for(ModelKind::RcFullSwing, 4);
  const BusParams ls = params_for(ModelKind::LowSwing, 4);
  CoupledBus rc_bus(rc);
  CoupledBus ls_bus(ls);
  EXPECT_GT(ls_bus.nominal_delay(0), rc_bus.nominal_delay(0));
}

TEST(LowSwingModel, SettledLogicUsesReceiverThreshold) {
  const BusParams p = params_for(ModelKind::LowSwing, 4);
  CoupledBus bus(p);
  // 0.40 V > 0.36 V threshold => logic 1 even though it is far below
  // the full-swing midpoint (0.9 V).
  Waveform high(p.samples, sim::kPs, 0.40);
  EXPECT_EQ(bus.settled_logic(high), util::Logic::L1);
  Waveform low(p.samples, sim::kPs, 0.30);
  EXPECT_EQ(bus.settled_logic(low), util::Logic::L0);

  const BusParams rcp = params_for(ModelKind::RcFullSwing, 4);
  CoupledBus rc_bus(rcp);
  EXPECT_EQ(rc_bus.settled_logic(high), util::Logic::L0)
      << "0.40 V is a solid 0 on a full-swing bus";
}

TEST(LowSwingModel, ValidatesParameterRanges) {
  auto expect_invalid = [](BusParams p, const std::string& what) {
    try {
      CoupledBus bus(p);
      FAIL() << "expected invalid_argument(\"" << what << "\")";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), what);
    }
  };
  BusParams p = params_for(ModelKind::LowSwing, 4);
  p.swing_frac = 0.0;
  expect_invalid(p, "low_swing swing_frac must be in (0, 1]");
  p.swing_frac = 1.5;
  expect_invalid(p, "low_swing swing_frac must be in (0, 1]");
  p = params_for(ModelKind::LowSwing, 4);
  p.receiver_vt_frac = 0.0;
  expect_invalid(p, "low_swing receiver_vt_frac must be in (0, 1)");
  p = params_for(ModelKind::LowSwing, 4);
  p.receiver_vt_frac = 0.3;
  p.swing_frac = 0.25;
  expect_invalid(p, "low_swing receiver_vt_frac must be below swing_frac");

  // The same out-of-range values are fine under rc_full_swing, which
  // ignores the low-swing knobs entirely.
  p = params_for(ModelKind::RcFullSwing, 4);
  p.swing_frac = 1.5;
  p.receiver_vt_frac = 0.0;
  EXPECT_NO_THROW(CoupledBus{p});
}

// ---- diagnostics ------------------------------------------------------------

TEST(ModelDiagnostics, RequireWidthNamesTheModel) {
  auto expect_width_error = [](const CoupledBus& bus, std::size_t expected,
                               const std::string& what) {
    try {
      require_width(bus, expected);
      FAIL() << "expected invalid_argument(\"" << what << "\")";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), what);
    }
  };
  CoupledBus rc(params_for(ModelKind::RcFullSwing, 4));
  expect_width_error(rc, 6, "rc_full_swing bus width 4 != expected 6");
  CoupledBus ls(params_for(ModelKind::LowSwing, 16, 128));
  expect_width_error(ls, 8, "low_swing bus width 16 != expected 8");
  EXPECT_NO_THROW(require_width(rc, 4));
}

// ---- same_params ------------------------------------------------------------

TEST(SameParams, DiscriminatesModelKindAndModelKnobs) {
  const BusParams rc = params_for(ModelKind::RcFullSwing, 8);
  const BusParams ls = params_for(ModelKind::LowSwing, 8);
  EXPECT_TRUE(same_params(rc, rc));
  EXPECT_TRUE(same_params(ls, ls));
  EXPECT_FALSE(same_params(rc, ls)) << "same RC numbers, different model";

  BusParams rc2 = rc;
  rc2.vdd = 1.2;
  EXPECT_FALSE(same_params(rc, rc2));

  // low_swing's extra knobs participate; rc_full_swing ignores them.
  BusParams ls2 = ls;
  ls2.swing_frac = 0.5;
  EXPECT_FALSE(same_params(ls, ls2));
  ls2 = ls;
  ls2.receiver_vt_frac = 0.1;
  EXPECT_FALSE(same_params(ls, ls2));
  BusParams rc3 = rc;
  rc3.swing_frac = 0.5;
  rc3.receiver_vt_frac = 0.1;
  EXPECT_TRUE(same_params(rc, rc3))
      << "the low-swing knobs are dead state under rc_full_swing";
}

// ---- detectors on a low-swing SoC ------------------------------------------

TEST(LowSwingSession, CleanDiePassesWithScaledBudget) {
  core::SocConfig cfg;
  cfg.n_wires = 4;
  cfg.bus = params_for(ModelKind::LowSwing, 4, 2048);
  // The low-swing rise detects ~321 ps after launch at defaults; give
  // the SD cell a budget beyond that so a defect-free die is clean.
  cfg.sd.skew_budget = 500 * sim::kPs;
  core::SiSocDevice soc(cfg);
  core::SiTestSession session(soc);
  const core::IntegrityReport r =
      session.run(core::ObservationMethod::OnceAtEnd);
  EXPECT_FALSE(r.any_violation());
}

TEST(LowSwingSession, DetectorsFireOnDefects) {
  // ND: the detector supply is the observed swing (0.45 V), so a
  // crosstalk glitch sized against the reduced rail still trips it.
  {
    core::SocConfig cfg;
    cfg.n_wires = 4;
    cfg.bus = params_for(ModelKind::LowSwing, 4, 2048);
    cfg.sd.skew_budget = 500 * sim::kPs;
    core::SiSocDevice soc(cfg);
    soc.bus().inject_crosstalk_defect(2, 6.0);
    core::SiTestSession session(soc);
    const core::IntegrityReport r =
        session.run(core::ObservationMethod::OnceAtEnd);
    const std::vector<std::size_t> noisy = r.noisy_wires();
    EXPECT_TRUE(std::find(noisy.begin(), noisy.end(), std::size_t{2}) !=
                noisy.end())
        << "the glitched wire must be flagged noisy";
  }
  // SD: extra series resistance stretches the rising tau (already
  // 1/swing_frac-stretched) past the budget on the victim only.
  {
    core::SocConfig cfg;
    cfg.n_wires = 4;
    cfg.bus = params_for(ModelKind::LowSwing, 4, 2048);
    cfg.sd.skew_budget = 500 * sim::kPs;
    core::SiSocDevice soc(cfg);
    soc.bus().add_series_resistance(1, 400.0);
    core::SiTestSession session(soc);
    const core::IntegrityReport r =
        session.run(core::ObservationMethod::OnceAtEnd);
    const std::vector<std::size_t> skewed = r.skewed_wires();
    EXPECT_TRUE(std::find(skewed.begin(), skewed.end(), std::size_t{1}) !=
                skewed.end())
        << "the resistive wire must be flagged slow";
  }
}

}  // namespace
}  // namespace jsi::si

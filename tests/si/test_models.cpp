// The interconnect-model seam (si/model.hpp): registry round-trips, the
// per-model store==direct-solver bit-for-bit differential contract (the
// same pin kernel_ratio_guard asserts, here across widths, stacked
// defects and clones), low_swing electricals and parameter validation, the
// model-aware require_width diagnostic, and si::same_params — the
// predicate gating prototype clones in campaigns and sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "core/soc.hpp"
#include "mafm/fault.hpp"
#include "si/bus.hpp"
#include "si/model.hpp"

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
/// transition served by `batched` must equal the model's solver, called
/// directly on an electrically identical `BusModel`, bit-for-bit.
void expect_batched_equals_scalar(CoupledBus& batched, const BusModel& scalar,
                                  const std::string& tag) {
  const std::size_t n = batched.n();
  const std::size_t samples = batched.params().samples;
  const InterconnectModel& solver = model_for(scalar.params().model);
  Waveform ref(samples, scalar.params().sample_dt);
  for (const mafm::VectorPair& vp : ma_pairs(n)) {
    const TransitionBatch b = batched.transition_batch(vp.v1, vp.v2);
    for (std::size_t i = 0; i < n; ++i) {
      solver.solve_wire(scalar, i, vp.v1, vp.v2, ref.data());
      ASSERT_EQ(std::memcmp(b.wire(i).data(), ref.data(),
                            samples * sizeof(double)),
                0)
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
  const TransitionBatch b = bus.transition_batch(vp.v1, vp.v2);
  double peak = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t s = 0; s < p.samples; ++s) {
      peak = std::max(peak, b.wire(i)[s]);
    }
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

#include "si/detectors.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "si/bus.hpp"

namespace jsi::si {
namespace {

using util::Logic;

constexpr double kVdd = 1.8;

Waveform flat(double v, std::size_t n = 512) {
  return Waveform(n, sim::kPs, v);
}

/// Rectangular glitch of height `peak` riding on `base`.
Waveform glitch(double base, double peak, std::size_t from = 100,
                std::size_t to = 200) {
  Waveform w = flat(base);
  for (std::size_t i = from; i < to; ++i) w[i] = base + peak;
  return w;
}

/// Exponential 0->vdd transition with time constant tau_ps.
Waveform rising(double tau_ps, std::size_t n = 2048) {
  Waveform w(n, sim::kPs, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = kVdd * (1.0 - std::exp(-static_cast<double>(i) / tau_ps));
  }
  return w;
}

TEST(NdCell, QuietLineCleanNoFlag) {
  NdCell nd;
  nd.set_enable(true);
  nd.latch(nd.violates(glitch(0.0, 0.2), Logic::L0, Logic::L0));
  EXPECT_FALSE(nd.flag());
}

TEST(NdCell, QuietLowLinePositiveGlitchFlags) {
  NdCell nd;
  nd.set_enable(true);
  // Deviation 1.0 V > V_Hthr (0.45 * 1.8 = 0.81 V).
  nd.latch(nd.violates(glitch(0.0, 1.0), Logic::L0, Logic::L0));
  EXPECT_TRUE(nd.flag());
}

TEST(NdCell, QuietHighLineNegativeGlitchFlags) {
  NdCell nd;
  nd.set_enable(true);
  nd.latch(nd.violates(glitch(kVdd, -1.0), Logic::L1, Logic::L1));
  EXPECT_TRUE(nd.flag());
}

TEST(NdCell, ThresholdIsSharp) {
  const NdParams p;
  const double arm = p.v_hthr_frac * p.vdd;
  NdCell nd(p);
  EXPECT_FALSE(nd.violates(glitch(0.0, arm * 0.98), Logic::L0, Logic::L0));
  EXPECT_TRUE(nd.violates(glitch(0.0, arm * 1.02), Logic::L0, Logic::L0));
}

TEST(NdCell, OvershootBeyondRailFlags) {
  const NdParams p;
  NdCell nd(p);
  // Quiet-high line pushed above Vdd by more than overshoot_frac * Vdd.
  const double ov = (p.overshoot_frac + 0.05) * p.vdd;
  EXPECT_TRUE(nd.violates(glitch(kVdd, ov), Logic::L1, Logic::L1));
  EXPECT_FALSE(nd.violates(glitch(kVdd, (p.overshoot_frac - 0.05) * p.vdd),
                           Logic::L1, Logic::L1));
  // Undershoot below ground on a quiet-low line.
  EXPECT_TRUE(nd.violates(glitch(0.0, -ov), Logic::L0, Logic::L0));
}

TEST(NdCell, CleanMonotoneTransitionDoesNotFlag) {
  NdCell nd;
  nd.set_enable(true);
  nd.latch(nd.violates(rising(100.0), Logic::L0, Logic::L1));
  EXPECT_FALSE(nd.flag());
}

TEST(NdCell, RingingAfterArrivalFlags) {
  NdCell nd;
  nd.set_enable(true);
  Waveform w = rising(50.0);
  // After settling, a dip back toward the old rail by more than V_Hthr.
  for (std::size_t i = 1000; i < 1100; ++i) w[i] = 0.5;
  nd.latch(nd.violates(w, Logic::L0, Logic::L1));
  EXPECT_TRUE(nd.flag());
}

TEST(NdCell, TransitionOvershootFlags) {
  const NdParams p;
  NdCell nd(p);
  Waveform w = rising(50.0);
  for (std::size_t i = 500; i < 600; ++i) {
    w[i] = kVdd * (1.0 + p.overshoot_frac + 0.05);
  }
  EXPECT_TRUE(nd.violates(w, Logic::L0, Logic::L1));
}

TEST(NdCell, DisabledCellHoldsFlag) {
  NdCell nd;
  nd.set_enable(false);
  nd.latch(nd.violates(glitch(0.0, 1.5), Logic::L0, Logic::L0));
  EXPECT_FALSE(nd.flag());  // CE=0: nothing latched
  nd.set_enable(true);
  nd.latch(nd.violates(glitch(0.0, 1.5), Logic::L0, Logic::L0));
  EXPECT_TRUE(nd.flag());
  nd.set_enable(false);
  nd.latch(nd.violates(glitch(0.0, 0.0), Logic::L0, Logic::L0));
  EXPECT_TRUE(nd.flag());  // CE=0 preserves the captured data
  nd.clear();
  EXPECT_FALSE(nd.flag());
}

TEST(NdCell, HysteresisReleaseLevelBelowArm) {
  const NdParams p;
  EXPECT_LT(p.v_hmin_frac, p.v_hthr_frac);
}

TEST(SdCell, OnTimeTransitionNoFlag) {
  SdParams p;
  p.skew_budget = 150 * sim::kPs;
  SdCell sd(p);
  sd.set_enable(true);
  sd.latch(sd.violates(rising(100.0), Logic::L0, Logic::L1));  // 50% at ~69 ps
  EXPECT_FALSE(sd.flag());
}

TEST(SdCell, LateTransitionFlags) {
  SdParams p;
  p.skew_budget = 150 * sim::kPs;
  SdCell sd(p);
  sd.set_enable(true);
  sd.latch(sd.violates(rising(400.0), Logic::L0, Logic::L1));  // 50% at ~277 ps
  EXPECT_TRUE(sd.flag());
}

TEST(SdCell, ArrivalTimeIsTheLastCrossing) {
  SdParams p;
  SdCell sd(p);
  Waveform w = rising(50.0);
  // Glitch back below threshold at 700..800 ps: arrival is recommitted at
  // 800 ps.
  for (std::size_t i = 700; i < 800; ++i) w[i] = 0.2;
  const auto t = sd.arrival_time(w);
  ASSERT_TRUE(t.has_value());
  EXPECT_GE(*t, 800u);
}

TEST(SdCell, QuietWireIgnored) {
  SdParams p;
  p.skew_budget = 1;  // absurd budget: anything would violate
  SdCell sd(p);
  sd.set_enable(true);
  sd.latch(sd.violates(flat(0.0), Logic::L0, Logic::L0));
  EXPECT_FALSE(sd.flag());
}

TEST(SdCell, NeverArrivingTransitionFlags) {
  SdParams p;
  SdCell sd(p);
  sd.set_enable(true);
  // Driven 0->1 but the waveform stays low: gross delay/stuck fault.
  sd.latch(sd.violates(flat(0.1), Logic::L0, Logic::L1));
  EXPECT_TRUE(sd.flag());
}

TEST(SdCell, DisabledCellPreservesState) {
  SdParams p;
  p.skew_budget = 10 * sim::kPs;
  SdCell sd(p);
  sd.set_enable(false);
  sd.latch(sd.violates(rising(400.0), Logic::L0, Logic::L1));
  EXPECT_FALSE(sd.flag());
  sd.set_enable(true);
  sd.latch(sd.violates(rising(400.0), Logic::L0, Logic::L1));
  EXPECT_TRUE(sd.flag());
  sd.clear();
  EXPECT_FALSE(sd.flag());
}

class SkewBudgetSweep : public ::testing::TestWithParam<int> {};

TEST_P(SkewBudgetSweep, ViolationIffArrivalAfterBudget) {
  // Property: for an exponential transition with time constant tau, the
  // 50% crossing is tau*ln2; the SD flag must fire exactly when that
  // exceeds the budget.
  const double tau = static_cast<double>(GetParam());
  SdParams p;
  p.skew_budget = 150 * sim::kPs;
  SdCell sd(p);
  const bool late = tau * std::log(2.0) > 150.0;
  EXPECT_EQ(sd.violates(rising(tau, 8192), Logic::L0, Logic::L1), late)
      << "tau=" << tau;
}

INSTANTIATE_TEST_SUITE_P(Taus, SkewBudgetSweep,
                         ::testing::Values(50, 100, 150, 200, 210, 220, 300,
                                           500, 800));

TEST(Detectors, EndToEndWithBusModel) {
  // Wire 1 quiet between two rising aggressors with a strong coupling
  // defect: ND must fire; with the healthy bus it must not.
  const util::BitVec a = util::BitVec::from_string("000");
  const util::BitVec b = util::BitVec::from_string("101");
  BusParams bp;
  bp.n_wires = 3;

  CoupledBus healthy(bp);
  NdCell nd;
  EXPECT_FALSE(nd.violates(healthy.wire_response(1, a, b), Logic::L0, Logic::L0));

  CoupledBus sick(bp);
  sick.inject_crosstalk_defect(1, 6.0);
  EXPECT_TRUE(nd.violates(sick.wire_response(1, a, b), Logic::L0, Logic::L0));
}

}  // namespace
}  // namespace jsi::si

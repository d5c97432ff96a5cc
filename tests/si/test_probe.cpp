// Differential tests of the verdict probes (si/probe.hpp), with the full
// scans as the reference throughout: every verdict CoupledBus::judge
// reaches from a recipe, every SD arrival sample, every batch entry's
// final sample and every die_truth must equal what the scans of a direct
// render give. The bus-level grid covers widths 2-130, both models,
// l_wire 0 and 20 nH, stacked and asymmetric defects, lone aggressors
// (the equal-tau t*exp(-t/tau) glitch), aggressor pairs in the same and
// in opposite directions, and detector thresholds with arm <= release,
// out_band <= 0, a zero-width band and a supply other than the rail.
// Hand-built recipes add what no bus builds: edges running away from the
// driven rail, and thresholds placed on exact sample values, where a
// crossing guess that is off by one shows. Beside them: the bound margin,
// and the fallback pins of the e2ebench die templates and the Table 5
// n=64 sessions.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <vector>

#include "core/session.hpp"
#include "core/soc.hpp"
#include "mafm/fault.hpp"
#include "scenario/run.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"
#include "si/bus.hpp"
#include "si/detectors.hpp"
#include "si/model.hpp"
#include "si/probe.hpp"
#include "util/prng.hpp"

namespace jsi::si {
namespace {

using util::BitVec;
using util::Logic;

Logic level(std::uint64_t bit) { return util::to_logic(bit != 0); }

/// One detector setting.
struct Cells {
  NdParams nd;
  SdParams sd;
};

/// The threshold grid at the observed swing and at supplies 0.7x and
/// 1.3x of it: the shipped thresholds, arm below release (a settled
/// edge then rings), a zero-width band (arm == release), no overshoot
/// band and a negative one.
std::vector<Cells> threshold_grid(const BusParams& p) {
  const double swing = model_for(p.model).observed_swing(p);
  std::vector<Cells> grid;
  for (const double vdd : {swing, 0.7 * swing, 1.3 * swing}) {
    const NdParams nds[] = {{vdd, 0.45, 0.35, 0.25},
                            {vdd, 0.10, 0.35, 0.25},
                            {vdd, 0.30, 0.30, 0.10},
                            {vdd, 0.20, 0.10, 0.0},
                            {vdd, 0.60, 0.50, -0.05}};
    const SdParams sds[] = {{vdd, 150 * sim::kPs, 0.5},
                            {vdd, 60 * sim::kPs, 0.3},
                            {vdd, 400 * sim::kPs, 0.7}};
    for (std::size_t k = 0; k < std::size(nds); ++k) {
      grid.push_back({nds[k], sds[k % std::size(sds)]});
    }
  }
  return grid;
}

BitVec random_vec(util::Prng& rng, std::size_t n) {
  BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.next_bool());
  return v;
}

/// MA pairs (every victim up to n = 16, a spread of victims past it),
/// each wire rising and falling alone (its quiet neighbours take the
/// equal-tau glitch on a clean bus), quiet victims between a rising and
/// a falling aggressor, and random pairs.
std::vector<mafm::VectorPair> traffic_for(std::size_t n, std::uint32_t seed) {
  std::vector<std::size_t> victims;
  for (std::size_t v = 0; v < n; ++v) {
    if (n <= 16 || v < 3 || v + 3 >= n || v == n / 2 || v == n / 2 + 1) {
      victims.push_back(v);
    }
  }
  std::vector<mafm::VectorPair> pairs;
  for (const mafm::MaFault f : mafm::kAllFaults) {
    for (const std::size_t v : victims) {
      pairs.push_back(mafm::vectors_for(f, n, v));
    }
  }
  for (const std::size_t v : victims) {
    BitVec quiet(n);
    BitVec alone(n);
    alone.set(v, true);
    pairs.push_back({quiet, alone});
    pairs.push_back({alone, quiet});
    if (v > 0 && v + 1 < n) {
      BitVec a(n);
      BitVec b(n);
      a.set(v + 1, true);  // left rises, right falls around quiet v
      b.set(v - 1, true);
      pairs.push_back({a, b});
      pairs.push_back({b, a});
    }
  }
  util::Prng rng(seed);
  for (int k = 0; k < 16; ++k) {
    pairs.push_back({random_vec(rng, n), random_vec(rng, n)});
  }
  return pairs;
}

/// die_truth as it read every stress waveform before the probes: the
/// reference the probe-backed one must equal.
scenario::DieTruth rendered_truth(const CoupledBus& bus,
                                  const scenario::ShippingLimits& limits) {
  const std::size_t n = bus.n();
  const double swing = model_for(bus.params().model).observed_swing(bus.params());
  const auto max_settle =
      static_cast<sim::Time>(limits.max_settle_ps) * sim::kPs;
  scenario::DieTruth truth{BitVec(n, false), BitVec(n, false)};
  for (std::size_t w = 0; w < n; ++w) {
    for (const auto f : {mafm::MaFault::Pg, mafm::MaFault::PgBar,
                         mafm::MaFault::Ng, mafm::MaFault::NgBar}) {
      const mafm::VectorPair p = mafm::vectors_for(f, n, w);
      const Waveform wf = bus.wire_response(w, p.v1, p.v2);
      const double rail = p.v1[w] ? swing : 0.0;
      const double excursion =
          std::max(wf.max_value() - rail, rail - wf.min_value());
      if (excursion >= limits.max_glitch_frac * swing) truth.noisy.set(w, true);
    }
    for (const auto f : {mafm::MaFault::Rs, mafm::MaFault::Fs}) {
      const mafm::VectorPair p = mafm::vectors_for(f, n, w);
      const auto t = bus.wire_response(w, p.v1, p.v2).last_crossing(swing / 2);
      if (!t.has_value() || *t > max_settle) truth.skewed.set(w, true);
    }
  }
  return truth;
}

struct Outcomes {
  std::size_t verdicts[2][2] = {};  // [nd|sd][fired]
  std::size_t rang = 0;             // switching wires flagged by a ring
};

/// Judge every wire of `traffic` on `bus` under every setting of `grid`
/// and check it, its final sample and its SD arrival sample against the
/// scans of the direct render of its recipe.
void expect_probes_match_scans(const CoupledBus& bus, const BusModel& ref,
                               const std::vector<mafm::VectorPair>& traffic,
                               const std::vector<Cells>& grid,
                               Outcomes& seen) {
  const BusParams& p = bus.params();
  const InterconnectModel& model = model_for(p.model);
  std::map<RecipeBits, Waveform> renders;
  for (const Cells& c : grid) {
    const NdCell nd(c.nd);
    const SdCell sd(c.sd);
    for (std::size_t k = 0; k < traffic.size(); ++k) {
      const mafm::VectorPair& vp = traffic[k];
      const TransitionBatch b = bus.transition_batch(vp.v1, vp.v2);
      for (std::size_t i = 0; i < bus.n(); ++i) {
        const WireEntry& e = b.entry(i);
        ASSERT_TRUE(SameRecipe{}(*e.recipe, model.recipe(ref, i, vp.v1, vp.v2)))
            << "pair " << k << " wire " << i;
        auto [it, fresh] = renders.try_emplace(recipe_bits(*e.recipe));
        if (fresh) it->second = render(*e.recipe, p.samples, p.sample_dt);
        const WaveformView want = it->second;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(e.final_sample),
                  std::bit_cast<std::uint64_t>(want.final_value()))
            << "pair " << k << " wire " << i;
        const Logic initial = level(e.recipe->prev_level);
        const Logic expected = level(e.recipe->next_level);
        const Verdicts got = bus.judge(nd, sd, e);
        const Verdicts scan{nd.violates(want, initial, expected),
                            sd.violates(want, initial, expected)};
        ASSERT_EQ(got, scan) << "pair " << k << " wire " << i << " nd "
                             << c.nd.v_hthr_frac << "/" << c.nd.v_hmin_frac
                             << "/" << c.nd.overshoot_frac << " vdd "
                             << c.nd.vdd;
        ++seen.verdicts[0][got.nd];
        ++seen.verdicts[1][got.sd];
        if (initial != expected) {
          if (got.nd && c.nd.v_hthr_frac < c.nd.v_hmin_frac) ++seen.rang;
          const double at = c.sd.vth_frac * c.sd.vdd;
          const auto arrival = bus.probe(*e.recipe).last_crossing(at);
          ASSERT_EQ(arrival.has_value(), !(e.recipe->l_wire > 0.0));
          if (arrival.has_value()) {
            ASSERT_EQ(*arrival, want.last_crossing(at))
                << "pair " << k << " wire " << i;
          }
        }
      }
    }
  }
}

TEST(ProbeDifferential, JudgedVerdictsEqualTheScansAcrossWidthsAndModels) {
  const scenario::ShippingLimits limit_grid[] = {
      {0.30, 120}, {0.45, 200}, {0.65, 300}, {0.12, 60}};
  Outcomes seen;
  std::uint64_t ringing_fallbacks = 0;
  for (const ModelKind model : kAllModelKinds) {
    for (const double l_wire : {0.0, 20e-9}) {
      for (const std::size_t n : {2u, 3u, 5u, 8u, 16u, 33u, 64u, 65u, 130u}) {
        SCOPED_TRACE(::testing::Message() << model_kind_name(model) << " n="
                                          << n << " l=" << l_wire);
        BusParams p;
        p.n_wires = n;
        p.model = model;
        p.l_wire = l_wire;
        p.samples = n > 16 ? 256 : 512;
        CoupledBus bus(p);
        BusModel ref(p);
        const std::vector<mafm::VectorPair> traffic =
            traffic_for(n, 0x9B0Eu + static_cast<std::uint32_t>(n));
        const std::vector<Cells> grid = threshold_grid(p);
        const auto check_truth = [&] {
          for (const scenario::ShippingLimits& limits : limit_grid) {
            const scenario::DieTruth got = scenario::die_truth(bus, limits);
            const scenario::DieTruth want = rendered_truth(bus, limits);
            ASSERT_EQ(got.noisy, want.noisy) << limits.max_glitch_frac;
            ASSERT_EQ(got.skewed, want.skewed) << limits.max_settle_ps;
          }
        };
        expect_probes_match_scans(bus, ref, traffic, grid, seen);
        check_truth();
        // Stacked and asymmetric defects: a crosstalk defect with extra
        // series resistance on one wire, a weakened pair, a resistive
        // open at the edge.
        const auto stack = [n](auto& b) {
          b.inject_crosstalk_defect(n / 2, 6.0);
          b.add_series_resistance(n / 2, 400.0);
          b.scale_coupling(0, 2.5);
          if (n > 3) b.scale_coupling(n - 2, 0.4);
          b.add_series_resistance(n - 1, 900.0);
        };
        stack(bus);
        stack(ref);
        expect_probes_match_scans(bus, ref, traffic, grid, seen);
        check_truth();
        if (HasFatalFailure()) return;
        if (l_wire == 0.0) {
          EXPECT_EQ(bus.probe_fallbacks(), 0u) << "an RC bus always decides";
        } else {
          ringing_fallbacks += bus.probe_fallbacks();
        }
      }
    }
  }
  // Not vacuous: both detectors pass and fire, settled edges rang under
  // arm < release, and the ringing buses fell back to the scan.
  for (const auto& detector : seen.verdicts) {
    EXPECT_GT(detector[0], 0u);
    EXPECT_GT(detector[1], 0u);
  }
  EXPECT_GT(seen.rang, 0u);
  EXPECT_GT(ringing_fallbacks, 0u);
}

// ---- hand-built recipes -----------------------------------------------------

constexpr std::size_t kSamples = 512;
constexpr sim::Time kDt = sim::kPs;

double uniform(util::Prng& rng, double lo, double hi) {
  return lo + (hi - lo) * rng.next_double();
}

/// A recipe of kind `kind`: 0 an edge toward its driven rail (as the
/// models build), 1 an edge from anywhere to anywhere, 2 a quiet wire
/// with one aggressor, 3 with two.
WireRecipe random_recipe(util::Prng& rng, int kind) {
  WireRecipe r;
  const double rail = uniform(rng, 0.3, 2.5);
  r.tau = uniform(rng, 15e-12, 300e-12);
  if (kind <= 1) {
    r.prev_level = rng.next_bool() ? 1 : 0;
    r.next_level = 1 - r.prev_level;
    r.v0 = r.prev_level ? rail : 0.0;
    r.vf = r.next_level ? rail : 0.0;
    if (kind == 1) {
      r.v0 = uniform(rng, -0.5, 3.0);
      r.vf = uniform(rng, -0.5, 3.0);
    }
    return r;
  }
  r.prev_level = r.next_level = rng.next_bool() ? 1 : 0;
  r.v0 = r.vf = r.prev_level ? rail : 0.0;
  r.c_tot = uniform(rng, 1e-13, 6e-13);
  for (int k = 0; k < kind - 1; ++k) {
    RecipeAggressor& a = r.aggressors[k];
    a.cc = uniform(rng, 0.2, 1.0) * r.c_tot;
    a.swing = uniform(rng, 0.3, 2.5);
    a.direction = rng.next_bool() ? 1 : -1;
    switch (rng.next_below(4)) {
      case 0: a.tau = r.tau; break;                  // the equal-tau limit
      case 1: a.tau = r.tau * (1.0 + 1e-4); break;  // just past it
      default: a.tau = uniform(rng, 15e-12, 300e-12); break;
    }
  }
  return r;
}

/// Random detector params around `swing`, thresholds crossing each
/// other and the overshoot band going negative now and then.
Cells random_cells(util::Prng& rng, double swing) {
  Cells c;
  c.nd.vdd = c.sd.vdd = swing * uniform(rng, 0.5, 1.5);
  c.nd.v_hthr_frac = uniform(rng, 0.05, 0.8);
  c.nd.v_hmin_frac = uniform(rng, 0.05, 0.8);
  c.nd.overshoot_frac = uniform(rng, -0.1, 0.4);
  c.sd.vth_frac = uniform(rng, 0.1, 0.9);
  c.sd.skew_budget = rng.next_below(400) * sim::kPs;
  return c;
}

/// Every probe answer on `r` under `c` that is proved equals the scan;
/// returns how many were proved.
int expect_recipe_matches(const WireRecipe& r, const Cells& c) {
  const Waveform view = render(r, kSamples, kDt);
  const WireProbe probe(r, kSamples, kDt);
  const Logic initial = level(r.prev_level);
  const Logic expected = level(r.next_level);
  int proved = 0;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(probe.final_sample()),
            std::bit_cast<std::uint64_t>(view.final_value()));
  if (const auto v = probe.nd_violates(c.nd)) {
    EXPECT_EQ(*v, NdCell(c.nd).violates(view, initial, expected));
    ++proved;
  }
  if (const auto v = probe.sd_violates(c.sd)) {
    EXPECT_EQ(*v, SdCell(c.sd).violates(view, initial, expected));
    ++proved;
  }
  const double at = c.sd.vth_frac * c.sd.vdd;
  if (const auto t = probe.last_crossing(at)) {
    EXPECT_EQ(*t, view.last_crossing(at));
    ++proved;
  }
  const double rail = r.v0;
  const double limit = c.nd.v_hthr_frac * c.nd.vdd;
  if (const auto v = probe.strays(rail, limit)) {
    EXPECT_EQ(*v, std::max(view.max_value() - rail, rail - view.min_value()) >=
                      limit);
    ++proved;
  }
  return proved;
}

TEST(ProbeDifferential, HandBuiltRecipesAgreeWithTheScan) {
  util::Prng rng(0xB0B5u);
  int proved = 0;
  int asked = 0;
  for (int k = 0; k < 1500; ++k) {
    const int kind = static_cast<int>(rng.next_below(4));
    const WireRecipe r = random_recipe(rng, kind);
    const double swing = std::max(std::abs(r.v0), std::abs(r.vf)) + 0.3;
    for (int j = 0; j < 6; ++j) {
      SCOPED_TRACE(::testing::Message() << "recipe " << k << " cells " << j);
      proved += expect_recipe_matches(r, random_cells(rng, swing));
      asked += r.switches() ? 4 : 3;
      if (HasFailure()) return;
    }
  }
  // The switching RC edges and almost every quiet wire are decided.
  EXPECT_GT(proved, asked * 9 / 10);
}

TEST(ProbeDifferential, ThresholdsOnExactSampleValues) {
  // A threshold equal to a sample's value makes the scan's >= and <=
  // ties decide: a crossing guess off by one sample, or a ring test on
  // the wrong sample, shows here. vdd 1.0 puts every threshold at its
  // fraction exactly.
  util::Prng rng(0x7E57u);
  for (int k = 0; k < 600; ++k) {
    const int kind = static_cast<int>(rng.next_below(4));
    const WireRecipe r = random_recipe(rng, kind);
    const Waveform w = render(r, kSamples, kDt);
    const std::size_t s = 1 + rng.next_below(kSamples - 3);
    SCOPED_TRACE(::testing::Message() << "recipe " << k << " sample " << s);
    Cells c;
    c.nd.vdd = c.sd.vdd = 1.0;
    c.sd.vth_frac = w[s];  // the crossing lands on sample s exactly
    c.sd.skew_budget = s * sim::kPs;
    if (r.switches()) {
      // Release where the edge stands at s, arm where it stands at s+1:
      // the band is reached on s, and the ring test on s+1 is a tie.
      const auto dev_in = [&](double x) {
        return r.next_level ? 1.0 - x : x;
      };
      c.nd.v_hmin_frac = dev_in(w[s]);
      c.nd.v_hthr_frac = dev_in(w[s + 1]);
      c.nd.overshoot_frac = 0.0;
    } else {
      // Arm at the largest inward deviation: a tie on the peak sample.
      double peak = 0.0;
      for (std::size_t j = 0; j < w.samples(); ++j) {
        peak = std::max(peak, r.next_level ? 1.0 - w[j] : w[j]);
      }
      c.nd.v_hthr_frac = peak;
      c.nd.v_hmin_frac = peak;
      c.nd.overshoot_frac = 0.0;
    }
    expect_recipe_matches(r, c);
    if (HasFailure()) return;
  }
}

TEST(ProbeBounds, AThresholdInsideTheMarginFallsBack) {
  // A quiet-high wire beside an aggressor coupled through 0 F: every
  // sample is the rail, exactly. A limit inside the bound's margin is
  // not certified — the search reads samples until it runs out of
  // splits and gives up — and a limit past it is.
  WireRecipe r;
  r.prev_level = r.next_level = 1;
  r.v0 = r.vf = 1.8;
  r.tau = 80e-12;
  r.c_tot = 3e-13;
  r.aggressors[0] = {0.0, 60e-12, 1.8, 1};
  const WireProbe probe(r, 2048, sim::kPs);
  ASSERT_GT(probe.margin(), 0.0);
  EXPECT_FALSE(probe.strays(r.v0, probe.margin() / 2).has_value());
  const auto clear = probe.strays(r.v0, 2 * probe.margin());
  ASSERT_TRUE(clear.has_value());
  EXPECT_FALSE(*clear);

  // Through the bus the same wire falls back, once, and is still right.
  BusParams p;
  p.n_wires = 3;
  CoupledBus bus(p);
  bus.scale_coupling(0, 0.0);
  BitVec prev(3);
  BitVec next(3);
  prev.set(1, true);
  next.set(0, true);
  next.set(1, true);
  const TransitionBatch b = bus.transition_batch(prev, next);
  const WireProbe on_bus = bus.probe(*b.entry(1).recipe);
  NdParams nd;
  nd.v_hthr_frac = 0.45;
  nd.overshoot_frac = on_bus.margin() / 2 / nd.vdd;  // x - 1.8 >= band
  const Verdicts v = bus.judge(NdCell(nd), SdCell(), b.entry(1));
  EXPECT_EQ(bus.probe_fallbacks(), 1u);
  EXPECT_FALSE(v.nd);
}

// ---- fallback pins ----------------------------------------------------------

/// The e2ebench Monte-Carlo sweep shape: an enhanced method-1 die
/// template over an ND x SD grid with die-level variation and one random
/// crosstalk defect per die.
scenario::ScenarioSpec sweep_template(ModelKind model, std::vector<double> nd,
                                      std::vector<std::uint64_t> sd,
                                      std::vector<scenario::VariationSpec> var,
                                      std::size_t dies) {
  scenario::ScenarioSpec s;
  s.name = "probe_pin";
  s.topology.kind = scenario::TopologyKind::Soc;
  s.topology.n_wires = 8;
  s.topology.bus.model = model;
  scenario::SessionSpec die;
  die.kind = scenario::SessionKind::Enhanced;
  die.name = "die";
  die.method = 1;
  s.sessions = {die};
  scenario::SweepSpec sw;
  sw.samples = dies;
  sw.nd_vhthr_frac = std::move(nd);
  sw.sd_budget_ps = std::move(sd);
  sw.variations = std::move(var);
  scenario::DefectSpec d;
  d.kind = scenario::DefectKind::RandomCrosstalk;
  d.count = 1;
  d.severity = 1.5;
  sw.defects = {d};
  s.sweep = std::move(sw);
  s.campaign.seed = 12345;
  s.campaign.shards = 1;
  return s;
}

TEST(ProbeFallbacks, NoneOnTheSweepDieTemplates) {
  ProbeAudit* audit = probe_audit();
  ASSERT_NE(audit, nullptr) << "the test binaries install the audit";
  const scenario::ScenarioSpec templates[] = {
      sweep_template(ModelKind::RcFullSwing, {0.3, 0.45, 0.65}, {150, 250},
                     {{"r_driver", 0.08}, {"r_wire", 0.08}, {"c_couple", 0.08}},
                     16),
      sweep_template(ModelKind::LowSwing, {0.2, 0.45}, {450, 550, 650, 800},
                     {{"r_driver", 0.08},
                      {"c_couple", 0.08},
                      {"swing_frac", 0.06}},
                     8)};
  for (const scenario::ScenarioSpec& spec : templates) {
    SCOPED_TRACE(model_kind_name(spec.topology.bus.model));
    const std::uint64_t before = audit->fallbacks.load();
    const std::uint64_t proved = audit->certified.load();
    scenario::run_scenario(spec);
    EXPECT_EQ(audit->fallbacks.load(), before);
    EXPECT_GT(audit->certified.load(), proved);
  }
}

TEST(ProbeFallbacks, NoneOnTheTable5N64Sessions) {
  core::SocConfig cfg;
  cfg.n_wires = 64;
  cfg.enhanced = false;
  core::SiSocDevice conventional(cfg);
  core::ConventionalSession(conventional)
      .run(core::ObservationMethod::OnceAtEnd);
  EXPECT_EQ(conventional.bus().probe_fallbacks(), 0u);
  cfg.enhanced = true;
  core::SiSocDevice enhanced(cfg);
  core::SiTestSession(enhanced).run(core::ObservationMethod::OnceAtEnd);
  EXPECT_EQ(enhanced.bus().probe_fallbacks(), 0u);
  EXPECT_GT(enhanced.bus().cache_entries(), 0u);
}

}  // namespace
}  // namespace jsi::si

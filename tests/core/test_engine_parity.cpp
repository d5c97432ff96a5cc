// Golden parity tests for the TestPlanEngine refactor.
//
// The session classes were rewritten from hand-rolled TAP drive loops into
// thin planners over the shared core::TestPlanEngine. These tests pin the
// refactor to the pre-refactor behaviour: each configuration below was run
// against the original code and its full report (every pattern, every
// read-out, every flag vector, every clock count) hashed into an FNV-1a
// fingerprint. The engine must reproduce the reports byte for byte.
//
// A second group cross-checks the three TCK accountings against each other
// for every session kind and observation method:
//   dry-run cost walk == analysis::TimeModel closed form == live engine count.
#include <gtest/gtest.h>

#include <cstdint>

#include "analysis/time_model.hpp"
#include "core/plan.hpp"
#include "core/session.hpp"

namespace jsi::core {
namespace {

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 1099511628211ull;
}

std::uint64_t fnv_bits(std::uint64_t h, const util::BitVec& v) {
  h = fnv(h, v.size());
  for (std::size_t i = 0; i < v.size(); ++i) h = fnv(h, v[i] ? 1 : 2);
  return h;
}

/// Order-sensitive hash of everything an IntegrityReport carries.
std::uint64_t fingerprint(const IntegrityReport& r) {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv(h, r.n);
  h = fnv(h, static_cast<std::uint64_t>(r.method));
  h = fnv_bits(h, r.nd_final);
  h = fnv_bits(h, r.sd_final);
  for (const auto& p : r.patterns) {
    h = fnv_bits(h, p.before);
    h = fnv_bits(h, p.after);
    h = fnv(h, p.victim);
    h = fnv(h, static_cast<std::uint64_t>(p.init_block));
    h = fnv(h, p.from_rotate_scan ? 1 : 2);
    h = fnv(h, p.fault ? static_cast<std::uint64_t>(*p.fault) + 1 : 0);
  }
  for (const auto& o : r.readouts) {
    h = fnv_bits(h, o.nd);
    h = fnv_bits(h, o.sd);
    h = fnv(h, o.pattern_index);
    h = fnv(h, static_cast<std::uint64_t>(o.init_block));
  }
  h = fnv(h, r.total_tcks);
  h = fnv(h, r.generation_tcks);
  h = fnv(h, r.observation_tcks);
  return h;
}

struct Golden {
  ObservationMethod method;
  std::uint64_t total, generation, observation;
  std::size_t patterns, readouts;
  const char* nd;
  const char* sd;
  std::uint64_t fp;
};

void expect_matches(const IntegrityReport& r, const Golden& g) {
  EXPECT_EQ(r.total_tcks, g.total);
  EXPECT_EQ(r.generation_tcks, g.generation);
  EXPECT_EQ(r.observation_tcks, g.observation);
  EXPECT_EQ(r.patterns.size(), g.patterns);
  EXPECT_EQ(r.readouts.size(), g.readouts);
  EXPECT_EQ(r.nd_final.to_string(), g.nd);
  EXPECT_EQ(r.sd_final.to_string(), g.sd);
  EXPECT_EQ(fingerprint(r), g.fp) << "report diverged from the pre-refactor "
                                     "golden fingerprint";
}

// ---------------------------------------------------------------------------
// Golden fingerprints captured from the pre-refactor sessions
// ---------------------------------------------------------------------------

TEST(EngineParity, EnhancedSessionAllMethods) {
  const Golden goldens[] = {
      {ObservationMethod::OnceAtEnd, 350, 308, 42, 42, 1, "00100", "01110",
       4916643506795772762ull},
      {ObservationMethod::PerInitValue, 392, 308, 84, 42, 2, "00100", "01110",
       8265032766280821262ull},
      {ObservationMethod::PerPattern, 2472, 308, 2164, 42, 42, "00100",
       "01110", 4691578447308589611ull},
  };
  for (const auto& g : goldens) {
    SocConfig cfg;
    cfg.n_wires = 5;
    cfg.m_extra_cells = 1;
    SiSocDevice soc(cfg);
    soc.bus().inject_crosstalk_defect(2, 6.0);
    SiTestSession session(soc);
    SCOPED_TRACE(static_cast<int>(g.method));
    expect_matches(session.run(g.method), g);
  }
}

TEST(EngineParity, ParallelVictimsSession) {
  const Golden goldens[] = {
      {ObservationMethod::OnceAtEnd, 258, 202, 56, 18, 1, "00000000",
       "00010000", 9552892252814749418ull},
      {ObservationMethod::PerInitValue, 314, 202, 112, 18, 2, "00000000",
       "00010000", 80681654650272239ull},
  };
  for (const auto& g : goldens) {
    SocConfig cfg;
    cfg.n_wires = 8;
    cfg.m_extra_cells = 2;
    SiSocDevice soc(cfg);
    soc.bus().add_series_resistance(4, 900.0);
    SiTestSession session(soc);
    SCOPED_TRACE(static_cast<int>(g.method));
    expect_matches(session.run_parallel(g.method, 2), g);
  }
}

TEST(EngineParity, ConventionalSessionAllMethods) {
  const Golden goldens[] = {
      {ObservationMethod::OnceAtEnd, 1018, 976, 42, 60, 1, "00100", "01110",
       8642186776497058182ull},
      {ObservationMethod::PerInitValue, 1226, 976, 250, 60, 5, "00100",
       "01110", 11551267403816803460ull},
      {ObservationMethod::PerPattern, 4086, 976, 3110, 60, 60, "00100",
       "00100", 6804019402058016997ull},
  };
  for (const auto& g : goldens) {
    SocConfig cfg;
    cfg.n_wires = 5;
    cfg.m_extra_cells = 1;
    cfg.enhanced = false;
    SiSocDevice soc(cfg);
    soc.bus().inject_crosstalk_defect(2, 6.0);
    ConventionalSession session(soc);
    SCOPED_TRACE(static_cast<int>(g.method));
    expect_matches(session.run(g.method), g);
  }
}

TEST(EngineParity, MultiBusSession) {
  struct MbGolden {
    ObservationMethod method;
    std::uint64_t total, generation, observation;
    std::uint64_t fp[3];
    const char* nd[3];
    const char* sd[3];
  };
  const MbGolden goldens[] = {
      {ObservationMethod::OnceAtEnd,
       522,
       428,
       94,
       {12080142356026884052ull, 2041200563046689692ull,
        13318887404391247936ull},
       {"000000", "000100", "000000"},
       {"000000", "001110", "000000"}},
      {ObservationMethod::PerInitValue,
       616,
       428,
       188,
       {456805748571486212ull, 9206082390115046986ull,
        1064241678195324552ull},
       {"000000", "000100", "000000"},
       {"000000", "001110", "000000"}},
  };
  for (const auto& g : goldens) {
    SocConfig cfg;
    cfg.n_buses = 3;
    cfg.n_wires = 6;
    cfg.m_extra_cells = 1;
    SiSocDevice soc(cfg);
    soc.bus(1).inject_crosstalk_defect(2, 6.0);
    MultiBusSession session(soc);
    SCOPED_TRACE(static_cast<int>(g.method));
    const MultiBusReport r = session.run(g.method);
    EXPECT_EQ(r.total_tcks, g.total);
    EXPECT_EQ(r.generation_tcks, g.generation);
    EXPECT_EQ(r.observation_tcks, g.observation);
    ASSERT_EQ(r.buses.size(), 3u);
    for (std::size_t b = 0; b < 3; ++b) {
      SCOPED_TRACE(b);
      EXPECT_EQ(r.buses[b].patterns.size(), 50u);
      EXPECT_EQ(r.buses[b].nd_final.to_string(), g.nd[b]);
      EXPECT_EQ(r.buses[b].sd_final.to_string(), g.sd[b]);
      EXPECT_EQ(fingerprint(r.buses[b]), g.fp[b]);
    }
  }
}

// ---------------------------------------------------------------------------
// Dry-run cost == TimeModel closed form == live engine count
// ---------------------------------------------------------------------------

const ObservationMethod kAllMethods[] = {ObservationMethod::OnceAtEnd,
                                         ObservationMethod::PerInitValue,
                                         ObservationMethod::PerPattern};

TEST(DryRunCost, MatchesTimeModelAndLiveRunEnhanced) {
  for (std::size_t n : {3u, 5u, 8u}) {
    for (ObservationMethod method : kAllMethods) {
      SocConfig cfg;
      cfg.n_wires = n;
      cfg.m_extra_cells = 2;
      SiSocDevice soc(cfg);
      SiTestSession session(soc);
      const PlanCost cost = dry_run_cost(session.plan(method));

      analysis::TimeModel tm{n, cfg.m_extra_cells, cfg.ir_width};
      EXPECT_EQ(cost.generation_tcks, tm.pgbsc_generation());
      EXPECT_EQ(cost.observation_tcks, tm.enhanced_observation(method));
      EXPECT_EQ(cost.total_tcks, tm.enhanced_total(method));

      const IntegrityReport r = session.run(method);
      EXPECT_EQ(cost.total_tcks, r.total_tcks);
      EXPECT_EQ(cost.generation_tcks, r.generation_tcks);
      EXPECT_EQ(cost.observation_tcks, r.observation_tcks);
      EXPECT_EQ(cost.recorded_patterns, r.patterns.size());
      EXPECT_EQ(cost.readouts, r.readouts.size());
    }
  }
}

TEST(DryRunCost, MatchesTimeModelAndLiveRunConventional) {
  for (std::size_t n : {3u, 5u}) {
    for (ObservationMethod method : kAllMethods) {
      SocConfig cfg;
      cfg.n_wires = n;
      cfg.m_extra_cells = 1;
      cfg.enhanced = false;
      SiSocDevice soc(cfg);
      ConventionalSession session(soc);
      const PlanCost cost = dry_run_cost(session.plan(method));

      analysis::TimeModel tm{n, cfg.m_extra_cells, cfg.ir_width};
      EXPECT_EQ(cost.generation_tcks, tm.conventional_generation());
      EXPECT_EQ(cost.observation_tcks, tm.conventional_observation(method));
      EXPECT_EQ(cost.total_tcks, tm.conventional_total(method));

      const IntegrityReport r = session.run(method);
      EXPECT_EQ(cost.total_tcks, r.total_tcks);
      EXPECT_EQ(cost.generation_tcks, r.generation_tcks);
      EXPECT_EQ(cost.observation_tcks, r.observation_tcks);
    }
  }
}

TEST(DryRunCost, MatchesTimeModelAndLiveRunParallel) {
  const std::size_t guard = 2;
  for (ObservationMethod method :
       {ObservationMethod::OnceAtEnd, ObservationMethod::PerInitValue}) {
    SocConfig cfg;
    cfg.n_wires = 8;
    cfg.m_extra_cells = 2;
    SiSocDevice soc(cfg);
    SiTestSession session(soc);
    const PlanCost cost = dry_run_cost(session.plan_parallel(method, guard));

    analysis::TimeModel tm{cfg.n_wires, cfg.m_extra_cells, cfg.ir_width};
    EXPECT_EQ(cost.generation_tcks, tm.pgbsc_parallel_generation(guard));

    const IntegrityReport r = session.run_parallel(method, guard);
    EXPECT_EQ(cost.total_tcks, r.total_tcks);
    EXPECT_EQ(cost.generation_tcks, r.generation_tcks);
    EXPECT_EQ(cost.observation_tcks, r.observation_tcks);
  }
}

TEST(DryRunCost, MatchesTimeModelAndLiveRunMultiBus) {
  for (ObservationMethod method :
       {ObservationMethod::OnceAtEnd, ObservationMethod::PerInitValue}) {
    SocConfig cfg;
    cfg.n_buses = 3;
    cfg.n_wires = 6;
    cfg.m_extra_cells = 1;
    SiSocDevice soc(cfg);
    MultiBusSession session(soc);
    const PlanCost cost = dry_run_cost(session.plan(method));

    analysis::TimeModel tm{cfg.n_wires, cfg.m_extra_cells, cfg.ir_width};
    EXPECT_EQ(cost.generation_tcks, tm.multibus_generation(cfg.n_buses));

    const MultiBusReport r = session.run(method);
    EXPECT_EQ(cost.total_tcks, r.total_tcks);
    EXPECT_EQ(cost.generation_tcks, r.generation_tcks);
    EXPECT_EQ(cost.observation_tcks, r.observation_tcks);
  }
}

TEST(DryRunCost, PlanIsPureData) {
  // Dry-running a plan must not touch any simulator state: a plan built
  // from a session whose SoC is then mutated still prices identically.
  SocConfig cfg;
  cfg.n_wires = 5;
  SiSocDevice soc(cfg);
  SiTestSession session(soc);
  const TestPlan p = session.plan(ObservationMethod::PerInitValue);
  const PlanCost before = dry_run_cost(p);
  soc.bus().inject_crosstalk_defect(2, 8.0);
  const PlanCost after = dry_run_cost(p);
  EXPECT_EQ(before.total_tcks, after.total_tcks);
  EXPECT_EQ(before.dr_scans, after.dr_scans);
  EXPECT_EQ(before.update_pulses, after.update_pulses);
  EXPECT_EQ(before.ir_loads, after.ir_loads);
}

TEST(DryRunCost, UnsupportedMethodsThrow) {
  SocConfig cfg;
  cfg.n_wires = 8;
  cfg.m_extra_cells = 2;
  SiSocDevice soc(cfg);
  SiTestSession session(soc);
  EXPECT_THROW(session.plan_parallel(ObservationMethod::PerPattern, 2),
               std::invalid_argument);

  SocConfig mcfg;
  mcfg.n_buses = 2;
  SiSocDevice msoc(mcfg);
  MultiBusSession msession(msoc);
  EXPECT_THROW(msession.plan(ObservationMethod::PerPattern),
               std::invalid_argument);
}

}  // namespace
}  // namespace jsi::core

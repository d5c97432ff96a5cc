#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "analysis/time_model.hpp"
#include "core/session.hpp"
#include "mafm/schedule.hpp"
#include "obs/hub.hpp"

namespace jsi::core {
namespace {

SocConfig cfg(std::size_t buses, std::size_t wires) {
  SocConfig c;
  c.n_buses = buses;
  c.n_wires = wires;
  return c;
}

TEST(MultiBusSession, HealthyBusesAllClean) {
  SiSocDevice soc(cfg(3, 5));
  MultiBusSession session(soc);
  const auto r = session.run(ObservationMethod::OnceAtEnd);
  EXPECT_FALSE(r.any_violation());
  ASSERT_EQ(r.buses.size(), 3u);
  for (const auto& b : r.buses) {
    EXPECT_EQ(b.patterns.size(), 2u * (4 * 5 + 1));
  }
}

TEST(MultiBusSession, EveryBusReceivesTheFullFaultSet) {
  // The parallel rotation must give every victim of every bus all six MA
  // faults, exactly like the single-bus flow.
  const std::size_t n = 4, nb = 3;
  SiSocDevice soc(cfg(nb, n));
  MultiBusSession session(soc);
  const auto r = session.run(ObservationMethod::OnceAtEnd);
  for (std::size_t b = 0; b < nb; ++b) {
    for (std::size_t v = 0; v < n; ++v) {
      std::set<mafm::MaFault> got;
      for (const auto& p : r.buses[b].patterns) {
        if (p.victim == v && p.fault) got.insert(*p.fault);
      }
      EXPECT_EQ(got.size(), 6u) << "bus " << b << " victim " << v;
    }
  }
}

TEST(MultiBusSession, PatternsMatchSingleBusReference) {
  // Every bus must generate the same golden sequence as a lone bus
  // (ignoring the final cross-block rotation step, whose vector differs
  // because the neighbouring block's hot bit arrives).
  const std::size_t n = 5, nb = 2;
  SiSocDevice soc(cfg(nb, n));
  MultiBusSession session(soc);
  const auto r = session.run(ObservationMethod::OnceAtEnd);
  for (int block = 0; block < 2; ++block) {
    const auto ref = mafm::pgbsc_reference_sequence(n, block != 0);
    for (std::size_t b = 0; b < nb; ++b) {
      for (std::size_t i = 0; i + 1 < ref.size(); ++i) {
        const auto& got = r.buses[b].patterns[block * ref.size() + i];
        EXPECT_EQ(got.after.to_string(), ref[i].vector.to_string())
            << "bus " << b << " block " << block << " step " << i;
        EXPECT_EQ(got.fault, ref[i].fault);
      }
    }
  }
}

TEST(MultiBusSession, DefectsLocalizedToTheRightBus) {
  SiSocDevice soc(cfg(3, 6));
  soc.bus(0).inject_crosstalk_defect(2, 6.0);
  soc.bus(2).add_series_resistance(4, 900.0);
  MultiBusSession session(soc);
  const auto r = session.run(ObservationMethod::OnceAtEnd);
  EXPECT_TRUE(r.buses[0].nd_final[2]);
  EXPECT_TRUE(r.buses[2].sd_final[4]);
  // Bus 1 is healthy and must stay silent.
  EXPECT_EQ(r.buses[1].nd_final.popcount(), 0u);
  EXPECT_EQ(r.buses[1].sd_final.popcount(), 0u);
}

TEST(MultiBusSession, ScanOutMatchesGroundTruth) {
  SiSocDevice soc(cfg(2, 5));
  soc.bus(1).inject_crosstalk_defect(3, 6.0);
  MultiBusSession session(soc);
  const auto r = session.run(ObservationMethod::OnceAtEnd);
  for (std::size_t b = 0; b < 2; ++b) {
    ASSERT_EQ(r.buses[b].readouts.size(), 1u);
    EXPECT_EQ(r.buses[b].readouts[0].nd.to_string(),
              soc.nd_flags(b).to_string())
        << "bus " << b;
    EXPECT_EQ(r.buses[b].readouts[0].sd.to_string(),
              soc.sd_flags(b).to_string());
  }
}

TEST(MultiBusSession, ParallelismMakesGenerationNearlyFlatInBusCount) {
  // Pattern updates do not grow with B; only the scans (chain length) do.
  // Testing 4 buses in parallel must cost far less than 4 separate
  // single-bus sessions.
  const std::size_t n = 8;
  std::uint64_t parallel4;
  {
    SiSocDevice soc(cfg(4, n));
    MultiBusSession session(soc);
    parallel4 = session.run(ObservationMethod::OnceAtEnd).total_tcks;
  }
  std::uint64_t single;
  {
    SocConfig sc;
    sc.n_wires = n;
    SiSocDevice soc(sc);
    SiTestSession session(soc);
    single = session.run(ObservationMethod::OnceAtEnd).total_tcks;
  }
  EXPECT_LT(parallel4, 4 * single);
  EXPECT_LT(parallel4, 2 * single);  // in fact close to 1x plus scan growth
}

TEST(MultiBusSession, PerInitValueMethodWorks) {
  SiSocDevice soc(cfg(2, 4));
  soc.bus(0).inject_crosstalk_defect(1, 6.0);
  MultiBusSession session(soc);
  const auto r = session.run(ObservationMethod::PerInitValue);
  EXPECT_EQ(r.buses[0].readouts.size(), 2u);
  EXPECT_TRUE(r.buses[0].nd_final[1]);
}

TEST(MultiBusSession, PerPatternRejected) {
  SiSocDevice soc(cfg(2, 4));
  MultiBusSession session(soc);
  EXPECT_THROW(session.run(ObservationMethod::PerPattern),
               std::invalid_argument);
}

class MultiBusClockCounts
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(MultiBusClockCounts, MeasuredTcksMatchClosedForm) {
  const auto [buses, n] = GetParam();
  SiSocDevice soc(cfg(buses, n));
  MultiBusSession session(soc);
  analysis::TimeModel model{n, 1, 4};

  const auto r1 = session.run(ObservationMethod::OnceAtEnd);
  EXPECT_EQ(r1.generation_tcks, model.multibus_generation(buses));
  EXPECT_EQ(r1.observation_tcks, model.multibus_readout(buses));

  const auto r2 = session.run(ObservationMethod::PerInitValue);
  EXPECT_EQ(r2.observation_tcks, 2 * model.multibus_readout(buses));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MultiBusClockCounts,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 4),
                       ::testing::Values<std::size_t>(4, 8)));

/// One run's report, registry and JSONL event stream. The session span
/// records and counter carry the session's name, which is the one thing
/// a one-bus MultiBusSession and SiTestSession differ in; it is written
/// as `session` here.
struct Observed {
  IntegrityReport report;
  std::string registry;
  std::string events;
};

template <typename Session, typename Run>
Observed observe(std::size_t n, const char* name, Run run) {
  SiSocDevice soc(cfg(1, n));
  soc.bus().inject_crosstalk_defect(2, 6.0);
  soc.bus().inject_crosstalk_defect(4, 7.0);
  Session session(soc);
  obs::TracerConfig tc;
  tc.capacity = 1 << 16;
  obs::Hub hub(tc);
  session.set_sink(&hub);
  Observed o{run(session), hub.registry().to_json(), ""};
  EXPECT_EQ(hub.tracer().dropped(), 0u);
  std::ostringstream os;
  for (obs::Event e : hub.tracer().events()) {
    if (e.kind == obs::EventKind::SessionBegin ||
        e.kind == obs::EventKind::SessionEnd) {
      EXPECT_STREQ(e.name, name);
      e.name = "session";
    }
    obs::write_event_jsonl(os, e);
  }
  o.events = os.str();
  const std::string key = std::string("\"session.") + name + "\"";
  const std::size_t at = o.registry.find(key);
  EXPECT_NE(at, std::string::npos) << key;
  if (at != std::string::npos) {
    o.registry.replace(at, key.size(), "\"session.session\"");
  }
  return o;
}

TEST(MultiBusSession, SingleBusDegeneratesToSiTestSessionCounts) {
  // B=1 must cost exactly what the single-bus session costs (generation).
  const std::size_t n = 6;
  SiSocDevice msoc(cfg(1, n));
  MultiBusSession msession(msoc);
  const auto mr = msession.run(ObservationMethod::OnceAtEnd);

  analysis::TimeModel model{n, 1, 4};
  EXPECT_EQ(mr.generation_tcks, model.pgbsc_generation());
  EXPECT_EQ(mr.observation_tcks,
            model.enhanced_observation(ObservationMethod::OnceAtEnd));

  // And it is the same session: on a one-bus device with two crosstalk
  // defects the whole report, the registry and the event stream equal
  // SiTestSession's, but for the session's name.
  for (const auto m :
       {ObservationMethod::OnceAtEnd, ObservationMethod::PerInitValue}) {
    SCOPED_TRACE(static_cast<int>(m));
    const Observed multi = observe<MultiBusSession>(
        16, "multibus", [m](MultiBusSession& s) {
          MultiBusReport r = s.run(m);
          EXPECT_EQ(r.buses.size(), 1u);
          IntegrityReport one = r.buses.front();
          one.total_tcks = r.total_tcks;
          one.generation_tcks = r.generation_tcks;
          one.observation_tcks = r.observation_tcks;
          return one;
        });
    const Observed single = observe<SiTestSession>(
        16, "enhanced", [m](SiTestSession& s) { return s.run(m); });
    EXPECT_EQ(format_report(multi.report), format_report(single.report));
    EXPECT_EQ(multi.report.nd_final, single.report.nd_final);
    EXPECT_EQ(multi.report.sd_final, single.report.sd_final);
    EXPECT_TRUE(multi.report.any_violation());
    ASSERT_EQ(multi.report.patterns.size(), single.report.patterns.size());
    for (std::size_t i = 0; i < multi.report.patterns.size(); ++i) {
      const AppliedPattern& p = multi.report.patterns[i];
      const AppliedPattern& q = single.report.patterns[i];
      EXPECT_EQ(p.before, q.before) << "pattern " << i;
      EXPECT_EQ(p.after, q.after) << "pattern " << i;
      EXPECT_EQ(p.victim, q.victim) << "pattern " << i;
      EXPECT_EQ(p.init_block, q.init_block) << "pattern " << i;
      EXPECT_EQ(p.from_rotate_scan, q.from_rotate_scan) << "pattern " << i;
      EXPECT_EQ(p.fault, q.fault) << "pattern " << i;
    }
    ASSERT_EQ(multi.report.readouts.size(), single.report.readouts.size());
    for (std::size_t i = 0; i < multi.report.readouts.size(); ++i) {
      EXPECT_EQ(multi.report.readouts[i].nd, single.report.readouts[i].nd);
      EXPECT_EQ(multi.report.readouts[i].sd, single.report.readouts[i].sd);
      EXPECT_EQ(multi.report.readouts[i].pattern_index,
                single.report.readouts[i].pattern_index);
      EXPECT_EQ(multi.report.readouts[i].init_block,
                single.report.readouts[i].init_block);
    }
    EXPECT_EQ(multi.report.total_tcks, single.report.total_tcks);
    EXPECT_EQ(multi.report.generation_tcks, single.report.generation_tcks);
    EXPECT_EQ(multi.report.observation_tcks, single.report.observation_tcks);
    EXPECT_EQ(multi.registry, single.registry);
    // EXPECT_EQ would print two long streams on a mismatch.
    EXPECT_TRUE(multi.events == single.events) << "event streams differ";
    EXPECT_NE(multi.events.find("\"kind\":\"DetectorFired\""),
              std::string::npos);
  }
}

}  // namespace
}  // namespace jsi::core

// Burst-path parity: every session kind through both TAP shift paths.
//
// TapMaster shifts each scan body as one burst: it emits the body's
// StateEdge records, then hands the whole body to TapPort::shift_run,
// which a TapDevice in Shift-DR serves with one pass over the selected
// register. The same device behind a jtag::TickOnlyPort is clocked edge
// by edge instead. Both sides must leave equal engine results, cell
// state, metrics and byte-equal event streams.
//
// Both sides share the master, so they cannot catch a change in when the
// master emits its records. Two golden digests of the event stream,
// recorded before the burst path existed, pin that order. Three more,
// recorded before the devices judged each run of wires that share a
// store entry once, pin the flags and DetectorFired order of that
// sensor loop: at n=64, where such runs are long, and on a two-bus
// device.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "../jtag/tick_only_port.hpp"
#include "bsc/planes.hpp"
#include "core/engine.hpp"
#include "core/plan.hpp"
#include "core/session.hpp"
#include "core/soc.hpp"
#include "obs/hub.hpp"
#include "util/prng.hpp"

namespace jsi::core {
namespace {

/// `count` crosstalk defects at seeded wires and severities.
void inject_defects(si::CoupledBus& bus, std::size_t n, std::uint64_t seed,
                    int count = 2) {
  util::Prng rng(seed);
  for (int d = 0; d < count; ++d) {
    const std::size_t wire = rng.next_below(n);
    bus.inject_crosstalk_defect(wire, 2.0 + 6.0 * rng.next_double());
  }
}

/// A hub whose ring keeps every record of `plan`: one StateEdge per TCK;
/// each op spans five TCKs or more and adds two span records; each
/// update edge takes four TCKs or more and adds, per bus, one transition
/// and one store lookup; each wire fires ND and SD at most once.
/// expect_same checks that nothing was dropped.
obs::Hub make_hub(const TestPlan& plan, std::size_t buses,
                  std::size_t wires) {
  obs::TracerConfig cfg;
  cfg.capacity = (2 + buses) * dry_run_cost(plan).total_tcks + 2 * wires + 64;
  cfg.cache_lookups = true;
  return obs::Hub(cfg);
}

/// FF1..FF3 and the sensor flags of every boundary cell, TDI end first,
/// read from the boundary register's planes.
std::string cell_state(const bsc::PlaneRegister& br) {
  std::string s;
  for (std::size_t i = 0; i < br.length(); ++i) {
    const auto bit = [i](const util::BitVec& plane) {
      return char('0' + plane[i]);
    };
    switch (br.kind(i)) {
      case bsc::CellKind::Pgbsc:
        s += {'P', bit(br.ff1()), bit(br.ff2()), bit(br.ff3()),
              bit(br.clocked())};
        break;
      case bsc::CellKind::Obsc:
        s += {'O', bit(br.ff1()), bit(br.ff2()), bit(br.nd()), bit(br.sd())};
        break;
      case bsc::CellKind::Standard:
        s += {'S', bit(br.ff1()), bit(br.ff2())};
        break;
    }
  }
  return s;
}

std::string jsonl(const obs::Hub& hub) {
  std::ostringstream os;
  for (const obs::Event& e : hub.tracer().events()) {
    obs::write_event_jsonl(os, e);
  }
  return os.str();
}

/// What one side of a run leaves behind.
struct Side {
  EngineResult result;
  std::string cells;
  std::string registry;
  std::string events;
  std::uint64_t dropped = 0;
};

/// Runs `plan` on the TAP of `soc` through a master over the device
/// itself (burst) or over a TickOnlyPort (per edge), with `hub` attached
/// everywhere.
Side run_side(SiSocDevice& soc, const TestPlan& plan, obs::Hub& hub,
              bool burst) {
  jtag::TickOnlyPort ticks(soc.tap());
  jtag::TapMaster master(burst ? static_cast<jtag::TapPort&>(soc.tap())
                               : ticks);
  master.set_sink(&hub);
  soc.set_sink(&hub);
  TestPlanEngine engine(master, &soc);
  engine.set_sink(&hub);
  Side s;
  s.result = engine.execute(plan);
  soc.set_sink(nullptr);
  s.cells = cell_state(soc.boundary());
  s.registry = hub.registry().to_json();
  s.events = jsonl(hub);
  s.dropped = hub.tracer().dropped();
  return s;
}

void expect_same_report(const IntegrityReport& a, const IntegrityReport& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.nd_final, b.nd_final);
  EXPECT_EQ(a.sd_final, b.sd_final);
  ASSERT_EQ(a.patterns.size(), b.patterns.size());
  for (std::size_t i = 0; i < a.patterns.size(); ++i) {
    const AppliedPattern& p = a.patterns[i];
    const AppliedPattern& q = b.patterns[i];
    EXPECT_EQ(p.before, q.before) << "pattern " << i;
    EXPECT_EQ(p.after, q.after) << "pattern " << i;
    EXPECT_EQ(p.victim, q.victim) << "pattern " << i;
    EXPECT_EQ(p.init_block, q.init_block) << "pattern " << i;
    EXPECT_EQ(p.from_rotate_scan, q.from_rotate_scan) << "pattern " << i;
    EXPECT_EQ(p.fault, q.fault) << "pattern " << i;
  }
  ASSERT_EQ(a.readouts.size(), b.readouts.size());
  for (std::size_t i = 0; i < a.readouts.size(); ++i) {
    EXPECT_EQ(a.readouts[i].nd, b.readouts[i].nd) << "readout " << i;
    EXPECT_EQ(a.readouts[i].sd, b.readouts[i].sd) << "readout " << i;
    EXPECT_EQ(a.readouts[i].pattern_index, b.readouts[i].pattern_index);
    EXPECT_EQ(a.readouts[i].init_block, b.readouts[i].init_block);
  }
}

void expect_same(const Side& burst, const Side& ticks) {
  EXPECT_EQ(burst.dropped, 0u);
  EXPECT_EQ(ticks.dropped, 0u);
  EXPECT_EQ(burst.result.total_tcks, ticks.result.total_tcks);
  EXPECT_EQ(burst.result.generation_tcks, ticks.result.generation_tcks);
  EXPECT_EQ(burst.result.observation_tcks, ticks.result.observation_tcks);
  EXPECT_EQ(burst.result.captures, ticks.result.captures);
  ASSERT_EQ(burst.result.reports.size(), ticks.result.reports.size());
  for (std::size_t b = 0; b < burst.result.reports.size(); ++b) {
    SCOPED_TRACE(b);
    expect_same_report(burst.result.reports[b], ticks.result.reports[b]);
  }
  EXPECT_EQ(burst.cells, ticks.cells);
  EXPECT_EQ(burst.registry, ticks.registry);
  // EXPECT_EQ would print two multi-megabyte streams on a mismatch.
  EXPECT_TRUE(burst.events == ticks.events) << "event streams differ";
}

enum class Kind { Conventional, Enhanced, Parallel };

TestPlan single_plan(Kind kind, const SocConfig& cfg,
                     ObservationMethod method) {
  switch (kind) {
    case Kind::Conventional:
      return plan_conventional_session(cfg.n_wires, cfg.m_extra_cells,
                                       cfg.ir_width, method);
    case Kind::Enhanced:
      return plan_enhanced_session(cfg.n_wires, cfg.m_extra_cells,
                                   cfg.ir_width, method);
    case Kind::Parallel:
      break;
  }
  return plan_parallel_victims(cfg.n_wires, cfg.m_extra_cells, cfg.ir_width,
                               method, /*guard=*/2);
}

void check_single(Kind kind, std::size_t n, ObservationMethod method) {
  SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)) + " n " +
               std::to_string(n) + " method " +
               std::to_string(static_cast<int>(method)));
  SocConfig cfg;
  cfg.n_wires = n;
  cfg.m_extra_cells = 2;
  cfg.enhanced = kind != Kind::Conventional;
  const TestPlan plan = single_plan(kind, cfg, method);
  const std::uint64_t seed = 1000 * n + static_cast<std::uint64_t>(method);
  Side sides[2];
  for (const bool burst : {true, false}) {
    SiSocDevice soc(cfg);
    inject_defects(soc.bus(), n, seed);
    obs::Hub hub = make_hub(plan, 1, n);
    sides[burst ? 0 : 1] = run_side(soc, plan, hub, burst);
  }
  expect_same(sides[0], sides[1]);
}

const std::size_t kWidths[] = {2, 8, 64};

TEST(BurstParity, ConventionalSessions) {
  for (const std::size_t n : kWidths) {
    for (const auto m : {ObservationMethod::OnceAtEnd,
                         ObservationMethod::PerInitValue,
                         ObservationMethod::PerPattern}) {
      check_single(Kind::Conventional, n, m);
    }
  }
}

TEST(BurstParity, EnhancedSessions) {
  for (const std::size_t n : kWidths) {
    for (const auto m : {ObservationMethod::OnceAtEnd,
                         ObservationMethod::PerInitValue,
                         ObservationMethod::PerPattern}) {
      check_single(Kind::Enhanced, n, m);
    }
  }
}

TEST(BurstParity, ParallelVictimSessions) {
  for (const std::size_t n : kWidths) {
    for (const auto m :
         {ObservationMethod::OnceAtEnd, ObservationMethod::PerInitValue}) {
      check_single(Kind::Parallel, n, m);
    }
  }
}

TEST(BurstParity, MultiBusSessions) {
  for (const std::size_t n : kWidths) {
    for (const auto m :
         {ObservationMethod::OnceAtEnd, ObservationMethod::PerInitValue}) {
      SCOPED_TRACE("n " + std::to_string(n) + " method " +
                   std::to_string(static_cast<int>(m)));
      SocConfig cfg;
      cfg.n_buses = 2;
      cfg.n_wires = n;
      const TestPlan plan = plan_multibus_session(
          cfg.n_buses, n, cfg.m_extra_cells, cfg.ir_width, m);
      Side sides[2];
      for (const bool burst : {true, false}) {
        SiSocDevice soc(cfg);
        for (std::size_t b = 0; b < cfg.n_buses; ++b) {
          inject_defects(soc.bus(b), n, 7000 + 10 * n + b);
        }
        obs::Hub hub = make_hub(plan, cfg.n_buses, cfg.n_buses * n);
        sides[burst ? 0 : 1] = run_side(soc, plan, hub, burst);
      }
      expect_same(sides[0], sides[1]);
    }
  }
}

// ---------------------------------------------------------------------------
// Golden event streams: the master's record order
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

template <typename Session>
std::uint64_t session_digest(bool enhanced) {
  SocConfig cfg;
  cfg.enhanced = enhanced;
  SiSocDevice soc(cfg);
  inject_defects(soc.bus(), cfg.n_wires, 8003);
  Session session(soc);
  obs::Hub hub = make_hub(session.plan(ObservationMethod::PerPattern), 1,
                          cfg.n_wires);
  session.set_sink(&hub);
  session.run(ObservationMethod::PerPattern);
  EXPECT_EQ(hub.tracer().dropped(), 0u);
  return fnv1a(jsonl(hub));
}

TEST(BurstParity, ConventionalPerPatternEventStreamIsPinned) {
  EXPECT_EQ(session_digest<ConventionalSession>(false),
            17311294188316602643ull);
}

TEST(BurstParity, EnhancedPerPatternEventStreamIsPinned) {
  EXPECT_EQ(session_digest<SiTestSession>(true), 372304360535377741ull);
}

/// Digest of the whole event stream `run` leaves in `hub`, which must
/// have kept every record and seen `fired` DetectorFired records.
template <typename Run>
std::uint64_t fired_digest(obs::Hub& hub, std::size_t fired, Run run) {
  run();
  EXPECT_EQ(hub.tracer().dropped(), 0u);
  std::size_t seen = 0;
  for (const obs::Event& e : hub.tracer().events()) {
    seen += e.kind == obs::EventKind::DetectorFired ? 1 : 0;
  }
  EXPECT_EQ(seen, fired);
  return fnv1a(jsonl(hub));
}

/// Enhanced (or, with `guard`, parallel-victim) method 1 on 64 wires
/// with three seeded crosstalk defects.
std::uint64_t wide_digest(std::size_t guard, std::size_t fired) {
  SocConfig cfg;
  cfg.n_wires = 64;
  SiSocDevice soc(cfg);
  inject_defects(soc.bus(), cfg.n_wires, 6403, 3);
  SiTestSession session(soc);
  const auto m = ObservationMethod::OnceAtEnd;
  obs::Hub hub = make_hub(
      guard == 0 ? session.plan(m) : session.plan_parallel(m, guard), 1,
      cfg.n_wires);
  session.set_sink(&hub);
  return fired_digest(hub, fired, [&] {
    if (guard == 0) {
      session.run(m);
    } else {
      session.run_parallel(m, guard);
    }
  });
}

TEST(BurstParity, WideEnhancedEventStreamIsPinned) {
  EXPECT_EQ(wide_digest(0, 10), 6928559036574821188ull);
}

TEST(BurstParity, WideParallelEventStreamIsPinned) {
  EXPECT_EQ(wide_digest(2, 10), 10814951934748768258ull);
}

TEST(BurstParity, MultiBusEventStreamIsPinned) {
  SocConfig cfg;
  cfg.n_buses = 2;
  cfg.n_wires = 8;
  SiSocDevice soc(cfg);
  soc.bus(1).inject_crosstalk_defect(4, 7.0);
  MultiBusSession session(soc);
  const auto m = ObservationMethod::OnceAtEnd;
  obs::Hub hub = make_hub(session.plan(m), cfg.n_buses,
                          cfg.n_buses * cfg.n_wires);
  session.set_sink(&hub);
  EXPECT_EQ(fired_digest(hub, 4, [&] { session.run(m); }),
            7025716084984084961ull);
}

}  // namespace
}  // namespace jsi::core

// Satellite regression for the TCK-accounting cross-check: for every
// session kind the three books must agree —
//
//   dry_run_cost(plan)  ==  live EngineResult totals  ==  metrics registry
//
// The hub runs in strict mode, so the MetricsSink's own PlanEnd
// cross-check (engine totals vs. folded StateEdge counts) throws on any
// disagreement; the EXPECTs below then pin the dry-run walk against both.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/bist.hpp"
#include "core/plan.hpp"
#include "core/session.hpp"
#include "ict/extest_session.hpp"
#include "obs/hub.hpp"
#include "obs/metrics_sink.hpp"

namespace jsi {
namespace {

using core::ObservationMethod;

obs::TracerConfig small_trace() {
  obs::TracerConfig cfg;
  cfg.capacity = 64;  // metrics, not traces, are under test here
  return cfg;
}

void expect_books_agree(const obs::Hub& hub, const core::PlanCost& dry,
                        std::uint64_t live_total, std::uint64_t live_gen,
                        std::uint64_t live_obs, const char* what) {
  const obs::Registry& reg = hub.registry();
  EXPECT_EQ(dry.total_tcks, live_total) << what;
  EXPECT_EQ(dry.generation_tcks, live_gen) << what;
  EXPECT_EQ(dry.observation_tcks, live_obs) << what;
  EXPECT_EQ(reg.counter_value("tck.total"), live_total) << what;
  EXPECT_EQ(reg.counter_value("tck.phase.generation"), live_gen) << what;
  EXPECT_EQ(reg.counter_value("tck.phase.observation"), live_obs) << what;
  EXPECT_EQ(reg.counter_value("obs.consistency_errors"), 0u) << what;
}

const ObservationMethod kMethods[] = {ObservationMethod::OnceAtEnd,
                                      ObservationMethod::PerInitValue,
                                      ObservationMethod::PerPattern};

TEST(MetricsAgree, EnhancedSession) {
  for (const ObservationMethod m : kMethods) {
    core::SocConfig cfg;
    cfg.n_wires = 4;
    core::SiSocDevice soc(cfg);
    core::SiTestSession session(soc);
    obs::Hub hub(small_trace());
    hub.set_strict(true);
    session.set_sink(&hub);

    const core::PlanCost dry = core::dry_run_cost(session.plan(m));
    const core::IntegrityReport r = session.run(m);
    expect_books_agree(hub, dry, r.total_tcks, r.generation_tcks,
                       r.observation_tcks, "enhanced");
    EXPECT_EQ(hub.registry().counter_value("session.enhanced"), 1u);
  }
}

TEST(MetricsAgree, ParallelVictimsSession) {
  for (const ObservationMethod m :
       {ObservationMethod::OnceAtEnd, ObservationMethod::PerInitValue}) {
    core::SocConfig cfg;
    cfg.n_wires = 6;
    core::SiSocDevice soc(cfg);
    core::SiTestSession session(soc);
    obs::Hub hub(small_trace());
    hub.set_strict(true);
    session.set_sink(&hub);

    const core::PlanCost dry = core::dry_run_cost(session.plan_parallel(m, 3));
    const core::IntegrityReport r = session.run_parallel(m, 3);
    expect_books_agree(hub, dry, r.total_tcks, r.generation_tcks,
                       r.observation_tcks, "parallel");
    EXPECT_EQ(hub.registry().counter_value("session.parallel"), 1u);
  }
}

TEST(MetricsAgree, ConventionalSession) {
  for (const ObservationMethod m : kMethods) {
    core::SocConfig cfg;
    cfg.n_wires = 4;
    cfg.enhanced = false;
    core::SiSocDevice soc(cfg);
    core::ConventionalSession session(soc);
    obs::Hub hub(small_trace());
    hub.set_strict(true);
    session.set_sink(&hub);

    const core::PlanCost dry = core::dry_run_cost(session.plan(m));
    const core::IntegrityReport r = session.run(m);
    expect_books_agree(hub, dry, r.total_tcks, r.generation_tcks,
                       r.observation_tcks, "conventional");
    EXPECT_EQ(hub.registry().counter_value("session.conventional"), 1u);
  }
}

TEST(MetricsAgree, MultiBusSession) {
  for (const ObservationMethod m :
       {ObservationMethod::OnceAtEnd, ObservationMethod::PerInitValue}) {
    core::SocConfig cfg;
    cfg.n_buses = 2;
    cfg.n_wires = 4;
    core::SiSocDevice soc(cfg);
    core::MultiBusSession session(soc);
    obs::Hub hub(small_trace());
    hub.set_strict(true);
    session.set_sink(&hub);

    const core::PlanCost dry = core::dry_run_cost(session.plan(m));
    const core::MultiBusReport r = session.run(m);
    expect_books_agree(hub, dry, r.total_tcks, r.generation_tcks,
                       r.observation_tcks, "multibus");
    EXPECT_EQ(hub.registry().counter_value("session.multibus"), 1u);
  }
}

TEST(MetricsAgree, ExtestSession) {
  ict::BoardNets board(6);
  ict::ExtestInterconnectSession session(board);
  obs::Hub hub(small_trace());
  hub.set_strict(true);
  session.set_sink(&hub);

  const core::PlanCost dry =
      core::dry_run_cost(session.plan(ict::Algorithm::CountingSequence));
  const auto r = session.run(ict::Algorithm::CountingSequence);
  // EXTEST has no observation phase: everything is generation.
  expect_books_agree(hub, dry, r.total_tcks, r.total_tcks, 0, "extest");
  EXPECT_EQ(hub.registry().counter_value("session.extest"), 1u);
}

TEST(MetricsAgree, BistSessionEdgeCountMatchesProgramLength) {
  // The BIST controller bypasses the engine (no plan, no PlanEnd
  // cross-check), but its mirrored edge stream must still account for
  // every program step.
  core::SocConfig cfg;
  cfg.n_wires = 4;
  core::SiSocDevice soc(cfg);
  core::SiBistController bist(soc);
  obs::Hub hub(small_trace());
  hub.set_strict(true);
  bist.set_sink(&hub);

  const auto r = bist.run();
  EXPECT_EQ(r.tcks, bist.program().length());
  EXPECT_EQ(hub.registry().counter_value("tck.total"), r.tcks);
  EXPECT_EQ(hub.registry().counter_value("session.bist"), 1u);
}

TEST(MetricsAgree, StrictModeThrowsOnForgedPlanTotals) {
  obs::Registry reg;
  obs::MetricsSink sink(reg);
  sink.set_strict(true);

  obs::Event begin;
  begin.kind = obs::EventKind::PlanBegin;
  sink.on_event(begin);

  obs::Event edge;
  edge.kind = obs::EventKind::StateEdge;
  edge.phase = obs::TckPhase::Other;
  sink.on_event(edge);

  obs::Event end;
  end.kind = obs::EventKind::PlanEnd;
  end.value = 99;  // engine claims 99 TCKs; the sink saw one edge
  end.a = 99;
  end.b = 0;
  EXPECT_THROW(sink.on_event(end), std::logic_error);
  EXPECT_EQ(sink.consistency_errors(), 1u);
  EXPECT_EQ(reg.counter_value("obs.consistency_errors"), 1u);
}

TEST(MetricsAgree, NonStrictModeCountsMismatchWithoutThrowing) {
  obs::Registry reg;
  obs::MetricsSink sink(reg);

  obs::Event begin;
  begin.kind = obs::EventKind::PlanBegin;
  sink.on_event(begin);
  obs::Event edge;
  edge.kind = obs::EventKind::StateEdge;
  sink.on_event(edge);
  obs::Event end;
  end.kind = obs::EventKind::PlanEnd;
  end.value = 2;
  end.a = 2;
  end.b = 0;
  EXPECT_NO_THROW(sink.on_event(end));
  EXPECT_EQ(sink.consistency_errors(), 1u);
}

}  // namespace
}  // namespace jsi

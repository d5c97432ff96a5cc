// The campaign runner's core guarantee, pinned as tier-1: the merged
// report and merged metrics registry of an N-shard run are BYTE-IDENTICAL
// to the 1-shard run's, for every session kind in the repo (enhanced,
// parallel-victim, conventional, multibus, board-level EXTEST, BIST),
// with defects in the mix and a warmed prototype bus shared by clone.
// Also cross-checks the three books at campaign scale:
// dry_run_cost == per-unit engine totals == merged registry counters.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/bist.hpp"
#include "core/campaign.hpp"
#include "core/plan.hpp"
#include "core/session.hpp"
#include "ict/extest_session.hpp"
#include "obs/hub.hpp"
#include "si/bus.hpp"

namespace jsi {
namespace {

using core::CampaignConfig;
using core::CampaignContext;
using core::CampaignResult;
using core::CampaignRunner;
using core::CampaignUnit;
using core::ObservationMethod;
using core::UnitOutcome;

constexpr std::size_t kShardCounts[] = {1, 2, 8};

core::SocConfig soc_cfg(std::size_t n_wires, bool enhanced = true) {
  core::SocConfig cfg;
  cfg.n_wires = n_wires;
  cfg.enhanced = enhanced;
  return cfg;
}

// The board-level EXTEST session lives in jsi_ict, which jsi_core cannot
// depend on; a custom unit covers it — exactly the extension point a
// downstream campaign would use.
CampaignUnit extest_unit(std::string name, std::size_t nets) {
  CampaignUnit u;
  u.name = std::move(name);
  u.run = [nets](CampaignContext& ctx) {
    ict::BoardNets board(nets);
    board.inject_stuck(1, true);
    ict::ExtestInterconnectSession session(board);
    session.set_sink(&ctx.hub());
    const ict::ExtestResult r = session.run(ict::Algorithm::CountingSequence);
    UnitOutcome o;
    o.total_tcks = r.total_tcks;
    o.generation_tcks = r.total_tcks;  // EXTEST has no observation phase
    o.violation = !r.board_is_clean();
    o.summary = r.board_is_clean() ? "clean" : "board fault detected";
    return o;
  };
  return u;
}

// One campaign covering all six session kinds, clean and defective, all
// 4-wire units seeded from the shared warmed prototype.
CampaignRunner make_mixed_campaign(std::size_t shards,
                                   const si::CoupledBus* prototype,
                                   bool keep_events) {
  CampaignConfig cfg;
  cfg.shards = shards;
  cfg.keep_events = keep_events;
  cfg.trace.capacity = 4096;
  CampaignRunner runner(cfg);
  runner.set_prototype_bus(prototype);

  const auto defect = [](std::size_t, si::CoupledBus& bus) {
    bus.inject_crosstalk_defect(1, 6.0);
  };

  runner.add_enhanced("enhanced-clean", soc_cfg(4),
                      ObservationMethod::OnceAtEnd);
  runner.add_enhanced("enhanced-defect", soc_cfg(4),
                      ObservationMethod::PerInitValue, defect);
  runner.add_parallel("parallel", soc_cfg(6), ObservationMethod::OnceAtEnd,
                      3);
  runner.add_conventional("conventional", soc_cfg(4, /*enhanced=*/false),
                          ObservationMethod::OnceAtEnd);
  core::SocConfig mb;
  mb.n_buses = 2;
  mb.n_wires = 4;
  runner.add_multibus("multibus", mb, ObservationMethod::OnceAtEnd);
  runner.add_multibus("multibus-defect", mb, ObservationMethod::PerInitValue,
                      [](std::size_t b, si::CoupledBus& bus) {
                        if (b == 1) bus.inject_crosstalk_defect(2, 6.0);
                      });
  runner.add(extest_unit("extest", 6));
  runner.add_bist("bist", soc_cfg(4));
  runner.add_bist("bist-defect", soc_cfg(4), defect);
  return runner;
}

si::CoupledBus warmed_prototype() {
  si::BusParams p;
  p.n_wires = 4;
  si::CoupledBus proto(p);
  util::BitVec prev(4);
  util::BitVec next(4);
  next.set(0, true);
  next.set(2, true);
  proto.transition(prev, next);
  return proto;
}

std::string events_transcript(const CampaignResult& r) {
  std::ostringstream os;
  for (std::size_t u = 0; u < r.events.size(); ++u) {
    os << "unit " << u << ":\n";
    for (const obs::Event& e : r.events[u]) {
      os << "  " << obs::event_kind_name(e.kind) << " tck=" << e.tck
         << " name=" << e.name << " a=" << e.a << " b=" << e.b
         << " value=" << e.value << "\n";
    }
  }
  return os.str();
}

TEST(CampaignDeterminism, MergedReportByteIdenticalAcrossShardCounts) {
  const si::CoupledBus proto = warmed_prototype();

  CampaignRunner ref =
      make_mixed_campaign(1, &proto, /*keep_events=*/true);
  const CampaignResult r1 = ref.run();
  ASSERT_EQ(r1.failures, 0u);
  ASSERT_GT(r1.violations, 0u) << "the defective units must flag";
  const std::string text1 = r1.to_text();
  const std::string json1 = r1.metrics.to_json();
  const std::string events1 = events_transcript(r1);

  for (std::size_t shards : kShardCounts) {
    CampaignRunner runner =
        make_mixed_campaign(shards, &proto, /*keep_events=*/true);
    const CampaignResult rn = runner.run();
    EXPECT_EQ(rn.to_text(), text1) << shards << " shards";
    EXPECT_EQ(rn.metrics.to_json(), json1) << shards << " shards";
    EXPECT_EQ(events_transcript(rn), events1) << shards << " shards";
  }
}

TEST(CampaignDeterminism, CacheCountersShardInvariantViaPrototypeClone) {
  // The subtle half of byte-identity: units clone the prototype per unit
  // (not per worker), so bus.cache_hits / bus.cache_misses in the merged
  // registry cannot depend on how units were packed onto workers.
  const si::CoupledBus proto = warmed_prototype();
  std::uint64_t hits1 = 0, misses1 = 0;
  for (std::size_t shards : kShardCounts) {
    CampaignRunner runner =
        make_mixed_campaign(shards, &proto, /*keep_events=*/false);
    const CampaignResult r = runner.run();
    if (shards == 1) {
      hits1 = r.metrics.counter_value("bus.cache_hits");
      misses1 = r.metrics.counter_value("bus.cache_misses");
      EXPECT_GT(hits1, 0u) << "warmed clones must produce hits";
    } else {
      EXPECT_EQ(r.metrics.counter_value("bus.cache_hits"), hits1)
          << shards << " shards";
      EXPECT_EQ(r.metrics.counter_value("bus.cache_misses"), misses1)
          << shards << " shards";
    }
  }
}

TEST(CampaignDeterminism, BooksAgreeAtCampaignScale) {
  // dry_run_cost over the same plans == summed unit outcomes == merged
  // registry totals, on a multi-shard run of the engine-driven kinds.
  CampaignConfig cfg;
  cfg.shards = 2;
  CampaignRunner runner(cfg);
  runner.add_enhanced("e4", soc_cfg(4), ObservationMethod::OnceAtEnd);
  runner.add_parallel("p6", soc_cfg(6), ObservationMethod::PerInitValue, 3);
  runner.add_conventional("c4", soc_cfg(4, false),
                          ObservationMethod::OnceAtEnd);
  core::SocConfig mb;
  mb.n_buses = 2;
  mb.n_wires = 4;
  runner.add_multibus("mb", mb, ObservationMethod::OnceAtEnd);

  // Re-derive every plan the campaign will execute and dry-run it.
  core::PlanCost want{};
  {
    core::SiSocDevice soc(soc_cfg(4));
    core::SiTestSession s(soc);
    const core::PlanCost c =
        core::dry_run_cost(s.plan(ObservationMethod::OnceAtEnd));
    want.total_tcks += c.total_tcks;
    want.generation_tcks += c.generation_tcks;
    want.observation_tcks += c.observation_tcks;
  }
  {
    core::SiSocDevice soc(soc_cfg(6));
    core::SiTestSession s(soc);
    const core::PlanCost c = core::dry_run_cost(
        s.plan_parallel(ObservationMethod::PerInitValue, 3));
    want.total_tcks += c.total_tcks;
    want.generation_tcks += c.generation_tcks;
    want.observation_tcks += c.observation_tcks;
  }
  {
    core::SiSocDevice soc(soc_cfg(4, false));
    core::ConventionalSession s(soc);
    const core::PlanCost c =
        core::dry_run_cost(s.plan(ObservationMethod::OnceAtEnd));
    want.total_tcks += c.total_tcks;
    want.generation_tcks += c.generation_tcks;
    want.observation_tcks += c.observation_tcks;
  }
  {
    core::SiSocDevice soc(mb);
    core::MultiBusSession s(soc);
    const core::PlanCost c =
        core::dry_run_cost(s.plan(ObservationMethod::OnceAtEnd));
    want.total_tcks += c.total_tcks;
    want.generation_tcks += c.generation_tcks;
    want.observation_tcks += c.observation_tcks;
  }

  const CampaignResult r = runner.run();
  ASSERT_EQ(r.failures, 0u);
  EXPECT_EQ(r.total_tcks, want.total_tcks);
  EXPECT_EQ(r.generation_tcks, want.generation_tcks);
  EXPECT_EQ(r.observation_tcks, want.observation_tcks);
  EXPECT_EQ(r.metrics.counter_value("tck.total"), want.total_tcks);
  EXPECT_EQ(r.metrics.counter_value("tck.phase.generation"),
            want.generation_tcks);
  EXPECT_EQ(r.metrics.counter_value("tck.phase.observation"),
            want.observation_tcks);
  EXPECT_EQ(r.metrics.counter_value("obs.consistency_errors"), 0u)
      << "per-worker strict hubs saw a clean per-plan cross-check";
  EXPECT_EQ(r.metrics.counter_value("plan.count"), 4u);
}

TEST(CampaignDeterminism, FailuresAreDeterministicToo) {
  // A throwing unit must not perturb byte-identity: the error lands in
  // the same slot with the same message at every shard count.
  const auto make = [](std::size_t shards) {
    CampaignConfig cfg;
    cfg.shards = shards;
    CampaignRunner runner(cfg);
    runner.add_enhanced("ok", soc_cfg(4), ObservationMethod::OnceAtEnd);
    CampaignUnit bad;
    bad.name = "bad";
    bad.run = [](CampaignContext&) -> UnitOutcome {
      throw std::runtime_error("deterministic boom");
    };
    runner.add(std::move(bad));
    runner.add_bist("tail", soc_cfg(4));
    return runner;
  };
  CampaignRunner r1 = make(1);
  const std::string want = r1.run().to_text();
  for (std::size_t shards : kShardCounts) {
    CampaignRunner rn = make(shards);
    EXPECT_EQ(rn.run().to_text(), want) << shards << " shards";
  }
}

}  // namespace
}  // namespace jsi

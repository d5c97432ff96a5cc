// Campaign-runner mechanics: unit ordering, error isolation, the
// prototype-bus clone path, the device built on handed-in buses, the
// additive Registry merge, the thread-safe aggregating live sink, and the
// per-edge stream a live sink gets.
// The byte-identity guarantee across shard counts has its own suite in
// test_campaign_determinism.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/session.hpp"
#include "obs/aggregate.hpp"
#include "obs/hub.hpp"
#include "obs/registry.hpp"
#include "si/bus.hpp"

namespace jsi {
namespace {

using core::CampaignConfig;
using core::CampaignContext;
using core::CampaignRunner;
using core::CampaignUnit;
using core::ObservationMethod;
using core::UnitOutcome;

CampaignUnit trivial_unit(std::string name, std::uint64_t tcks) {
  CampaignUnit u;
  u.name = std::move(name);
  u.run = [tcks](CampaignContext&) {
    UnitOutcome o;
    o.total_tcks = tcks;
    o.summary = "ok";
    return o;
  };
  return u;
}

TEST(Campaign, EmptyCampaignRuns) {
  CampaignRunner runner;
  const auto r = runner.run();
  EXPECT_TRUE(r.units.empty());
  EXPECT_EQ(r.total_tcks, 0u);
  EXPECT_EQ(r.failures, 0u);
  EXPECT_NE(r.to_text().find("0 units"), std::string::npos);
}

TEST(Campaign, OutcomesLandInAddOrderRegardlessOfShards) {
  for (std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    CampaignConfig cfg;
    cfg.shards = shards;
    CampaignRunner runner(cfg);
    for (int i = 0; i < 7; ++i) {
      runner.add(trivial_unit("unit" + std::to_string(i), 10 + i));
    }
    const auto r = runner.run();
    ASSERT_EQ(r.units.size(), 7u);
    for (int i = 0; i < 7; ++i) {
      EXPECT_EQ(r.units[i].name, "unit" + std::to_string(i));
      EXPECT_EQ(r.units[i].total_tcks, 10u + i);
    }
    EXPECT_EQ(r.total_tcks, 7u * 10u + 21u);
  }
}

TEST(Campaign, ShardsZeroResolvesToHardware) {
  CampaignConfig cfg;
  cfg.shards = 0;
  CampaignRunner runner(cfg);
  runner.add(trivial_unit("a", 1));
  runner.add(trivial_unit("b", 2));
  const auto r = runner.run();
  EXPECT_GE(r.shards_used, 1u);
  EXPECT_LE(r.shards_used, 2u) << "shards are clamped to the unit count";
  EXPECT_EQ(r.units.size(), 2u);
}

TEST(Campaign, ThrowingUnitIsIsolated) {
  CampaignConfig cfg;
  cfg.shards = 2;
  CampaignRunner runner(cfg);
  runner.add(trivial_unit("before", 5));
  CampaignUnit bad;
  bad.name = "bad";
  bad.run = [](CampaignContext&) -> UnitOutcome {
    throw std::runtime_error("injected failure");
  };
  runner.add(std::move(bad));
  runner.add(trivial_unit("after", 7));

  const auto r = runner.run();
  ASSERT_EQ(r.units.size(), 3u);
  EXPECT_FALSE(r.units[0].failed);
  EXPECT_TRUE(r.units[1].failed);
  EXPECT_EQ(r.units[1].summary, "error: injected failure");
  EXPECT_FALSE(r.units[2].failed);
  EXPECT_EQ(r.failures, 1u);
  EXPECT_EQ(r.total_tcks, 12u) << "a failed unit contributes no TCKs";
  EXPECT_NE(r.to_text().find("FAIL"), std::string::npos);
}

TEST(Campaign, ContextClonesPrototypeOnWidthMatch) {
  si::BusParams p;
  p.n_wires = 4;
  si::CoupledBus proto(p);
  util::BitVec prev(4);
  util::BitVec next(4);
  next.set(1, true);
  proto.transition(prev, next);  // warm the prototype
  ASSERT_GT(proto.cache_entries(), 0u);

  obs::Hub hub;
  CampaignContext ctx(hub, 0, 0, &proto);

  // Width match: the unit's bus starts warm.
  si::CoupledBus warm = ctx.make_bus(p);
  EXPECT_EQ(warm.cache_entries(), proto.cache_entries());
  EXPECT_EQ(warm.cache_misses(), proto.cache_misses());

  // Width mismatch: fall back to a fresh bus of the requested width.
  si::BusParams p6 = p;
  p6.n_wires = 6;
  si::CoupledBus fresh = ctx.make_bus(p6);
  EXPECT_EQ(fresh.n(), 6u);
  EXPECT_EQ(fresh.cache_entries(), 0u);
  EXPECT_EQ(fresh.cache_misses(), 0u);

  // No prototype at all: always fresh.
  CampaignContext bare(hub, 0, 0, nullptr);
  EXPECT_EQ(bare.make_bus(p).cache_entries(), 0u);
}

/// `n` clones of `bus`, to hand to a device.
std::vector<si::CoupledBus> clones(const si::CoupledBus& bus, std::size_t n) {
  std::vector<si::CoupledBus> out;
  for (std::size_t b = 0; b < n; ++b) out.push_back(bus.clone());
  return out;
}

TEST(Campaign, ExternalBusDeviceValidatesWidth) {
  si::BusParams p;
  p.n_wires = 4;
  p.vdd = 1.1;
  si::CoupledBus bus(p);

  core::SocConfig cfg;
  cfg.n_wires = 6;  // != bus.n()
  EXPECT_THROW(core::SiSocDevice(cfg, clones(bus, 1)), std::invalid_argument);

  cfg.n_wires = 4;
  util::BitVec prev(4);
  util::BitVec next(4);
  next.set(0, true);
  bus.transition(prev, next);
  core::SiSocDevice soc(cfg, clones(bus, 1));
  EXPECT_EQ(soc.bus().cache_entries(), bus.cache_entries())
      << "the device runs on the bus handed in, warm entries and all";
  EXPECT_DOUBLE_EQ(soc.config().bus.vdd, bus.params().vdd);
}

TEST(Campaign, ExternalBusDeviceRunsASession) {
  si::BusParams p;
  p.n_wires = 4;
  core::SocConfig cfg;
  cfg.n_wires = 4;
  core::SiSocDevice owned_soc(cfg);
  core::SiSocDevice handed_soc(cfg, clones(si::CoupledBus(p), 1));

  core::SiTestSession a(owned_soc);
  core::SiTestSession b(handed_soc);
  const auto ra = a.run(ObservationMethod::OnceAtEnd);
  const auto rb = b.run(ObservationMethod::OnceAtEnd);
  EXPECT_EQ(ra.total_tcks, rb.total_tcks);
  EXPECT_EQ(ra.nd_final.to_string(), rb.nd_final.to_string());
  EXPECT_GT(handed_soc.bus().cache_misses(), 0u)
      << "the session ran through the bus handed in";
}

TEST(Campaign, MultiBusPrototypeValidatesWidth) {
  si::BusParams p;
  p.n_wires = 4;
  si::CoupledBus proto(p);

  core::SocConfig cfg;
  cfg.n_buses = 2;
  cfg.n_wires = 6;  // != proto.n()
  EXPECT_THROW(core::SiSocDevice(cfg, clones(proto, 2)),
               std::invalid_argument);

  cfg.n_wires = 4;
  util::BitVec prev(4);
  util::BitVec next(4);
  next.set(0, true);
  proto.transition(prev, next);
  core::SiSocDevice soc(cfg, clones(proto, 2));
  for (std::size_t b = 0; b < cfg.n_buses; ++b) {
    EXPECT_EQ(soc.bus(b).cache_entries(), proto.cache_entries())
        << "bus " << b << " must start from the warmed prototype";
  }
}

TEST(Campaign, RegistryMergeIsAdditive) {
  obs::Registry a;
  a.counter("c").inc(3);
  a.gauge("g").set(1.5);
  a.histogram("h").observe(2.0);
  a.histogram("h").observe(100.0);

  obs::Registry b;
  b.counter("c").inc(4);
  b.counter("only_b").inc(1);
  b.gauge("g").set(2.5);
  b.histogram("h").observe(2.0);

  a.merge(b);
  EXPECT_EQ(a.counter_value("c"), 7u);
  EXPECT_EQ(a.counter_value("only_b"), 1u);
  EXPECT_DOUBLE_EQ(a.gauge_value("g"), 4.0);
  EXPECT_EQ(a.histogram("h").count(), 3u);
  EXPECT_DOUBLE_EQ(a.histogram("h").sum(), 104.0);
}

TEST(Campaign, RegistryMergePartitionInvariant) {
  // merge(u0); merge(u1); merge(u2) must equal merge(u0+u1); merge(u2):
  // the property the sharded campaign's byte-identity rests on.
  const auto unit_registry = [](int i) {
    obs::Registry r;
    r.counter("tck.total").inc(100 + i);
    r.histogram("op.tcks").observe(double(i));
    return r;
  };
  obs::Registry flat;
  for (int i = 0; i < 3; ++i) flat.merge(unit_registry(i));

  obs::Registry left;
  left.merge(unit_registry(0));
  left.merge(unit_registry(1));
  obs::Registry grouped;
  grouped.merge(left);
  grouped.merge(unit_registry(2));

  EXPECT_EQ(flat.to_json(), grouped.to_json());
}

TEST(Campaign, HistogramMergeRejectsMismatchedBounds) {
  obs::Histogram a(std::vector<double>{1.0, 2.0});
  obs::Histogram b(std::vector<double>{1.0, 3.0});
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Campaign, RegistryMergeNamesTheMismatchedHistogram) {
  obs::Registry a, b;
  a.histogram("op.tcks", {1.0, 2.0}).observe(1.0);
  b.histogram("op.tcks", {1.0, 3.0}).observe(1.0);
  try {
    a.merge(b);
    FAIL() << "layout mismatch must throw";
  } catch (const std::invalid_argument& e) {
    // A campaign merges dozens of per-unit registries; an anonymous
    // "layouts differ" gives no way to find the offender.
    EXPECT_NE(std::string(e.what()).find("\"op.tcks\""), std::string::npos)
        << e.what();
  }
}

TEST(Campaign, AggregatingSinkCollectsAcrossWorkers) {
  // Real multi-threaded fan-in: 8 engine-driven units on 4 workers all
  // feed one AggregatingSink. Its tck.total must equal the deterministic
  // merged registry's (every StateEdge folded exactly once), and the
  // per-worker strict hubs must not have tripped on interleaving,
  // because the aggregate drops PlanEnd cross-check events.
  CampaignConfig cfg;
  cfg.shards = 4;
  CampaignRunner runner(cfg);
  core::SocConfig soc;
  soc.n_wires = 4;
  for (int i = 0; i < 8; ++i) {
    runner.add_enhanced("enh" + std::to_string(i), soc,
                        ObservationMethod::OnceAtEnd);
  }
  obs::AggregatingSink live;
  runner.set_live_sink(&live);

  const auto r = runner.run();
  EXPECT_EQ(r.failures, 0u);
  EXPECT_EQ(live.counter_value("tck.total"),
            r.metrics.counter_value("tck.total"));
  EXPECT_EQ(live.counter_value("session.enhanced"), 8u);
  EXPECT_EQ(live.snapshot().counter_value("obs.consistency_errors"), 0u);
}

TEST(Campaign, LiveSinkSeesEveryEdgeWithoutKeepEvents) {
  // Without keep_events the worker hubs keep no ring, and a scan body
  // reaches them as one burst; the live sink must still be handed one
  // stamped StateEdge per TCK, never a burst.
  class EdgeCounter final : public obs::Sink {
   public:
    void on_event(const obs::Event& e) override {
      if (e.kind != obs::EventKind::StateEdge) return;
      edges.fetch_add(1, std::memory_order_relaxed);
      if (e.time_ps != e.tck * obs::TracerConfig{}.tck_period_ps) {
        unstamped.fetch_add(1, std::memory_order_relaxed);
      }
    }
    void on_shift_run(const obs::Event&, const util::BitVec&) override {
      bursts.fetch_add(1, std::memory_order_relaxed);
    }
    std::atomic<std::uint64_t> edges{0};
    std::atomic<std::uint64_t> unstamped{0};
    std::atomic<std::uint64_t> bursts{0};
  };
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    CampaignConfig cfg;
    cfg.shards = shards;
    ASSERT_FALSE(cfg.keep_events);
    CampaignRunner runner(cfg);
    core::SocConfig soc;
    soc.n_wires = 6;
    for (int i = 0; i < 3; ++i) {
      runner.add_enhanced("enh" + std::to_string(i), soc,
                          ObservationMethod::PerPattern);
      runner.add_conventional("conv" + std::to_string(i), soc,
                              ObservationMethod::OnceAtEnd);
      runner.add_bist("bist" + std::to_string(i), soc);
    }
    EdgeCounter live;
    runner.set_live_sink(&live);
    const auto r = runner.run();
    EXPECT_EQ(r.failures, 0u);
    EXPECT_GT(r.total_tcks, 0u);
    EXPECT_EQ(live.edges.load(), r.total_tcks) << "shards=" << shards;
    EXPECT_EQ(live.edges.load(), r.metrics.counter_value("tck.total"));
    EXPECT_EQ(live.unstamped.load(), 0u);
    EXPECT_EQ(live.bursts.load(), 0u);
    EXPECT_TRUE(r.events.empty());
  }
}

TEST(Campaign, WorkerHubsKeepARingOnlyForKeepEvents) {
  // Only keep_events reads a worker hub's tracer ring.
  for (const bool keep : {false, true}) {
    CampaignConfig cfg;
    cfg.keep_events = keep;
    cfg.trace.capacity = 1000;
    CampaignRunner runner(cfg);
    std::size_t capacity = 12345;
    CampaignUnit u;
    u.name = "probe";
    u.run = [&capacity](CampaignContext& ctx) {
      capacity = ctx.hub().tracer().config().capacity;
      return UnitOutcome{};
    };
    runner.add(std::move(u));
    runner.run();
    EXPECT_EQ(capacity, keep ? 1000u : 0u);
  }
}

TEST(Campaign, RunIsRepeatable) {
  CampaignConfig cfg;
  cfg.shards = 2;
  CampaignRunner runner(cfg);
  core::SocConfig soc;
  soc.n_wires = 4;
  runner.add_enhanced("e", soc, ObservationMethod::OnceAtEnd);
  runner.add_conventional("c", soc, ObservationMethod::OnceAtEnd);
  const auto r1 = runner.run();
  const auto r2 = runner.run();
  EXPECT_EQ(r1.to_text(), r2.to_text());
  EXPECT_EQ(r1.metrics.to_json(), r2.metrics.to_json());
}

}  // namespace
}  // namespace jsi

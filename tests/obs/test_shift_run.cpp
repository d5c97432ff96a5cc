// A scan body handed to a sink in one on_shift_run call must leave every
// sink exactly as the L per-edge on_event calls a TapMaster used to make;
// so must a run of navigation edges handed over in one on_edges call.

#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/aggregate.hpp"
#include "obs/events.hpp"
#include "obs/hub.hpp"
#include "obs/metrics_sink.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "util/bitvec.hpp"

namespace jsi::obs {
namespace {

constexpr std::size_t kLengths[] = {1, 2, 64, 129};

/// Records what it is given, one JSONL line per record.
class Capture final : public Sink {
 public:
  std::ostringstream jsonl;
  std::size_t count = 0;
  void on_event(const Event& e) override {
    write_event_jsonl(jsonl, e);
    ++count;
  }
};

Event span(EventKind kind, const char* name, std::uint64_t tck,
           std::int64_t a = -1, std::int64_t b = -1, std::uint64_t value = 0) {
  Event e;
  e.kind = kind;
  e.tck = tck;
  e.name = name;
  e.a = a;
  e.b = b;
  e.value = value;
  return e;
}

Event edge(const char* state, TckPhase phase, bool tms, bool tdi,
           std::uint64_t tck) {
  Event e;
  e.kind = EventKind::StateEdge;
  e.phase = phase;
  e.tck = tck;
  e.name = state;
  e.a = tms ? 1 : 0;
  e.b = tdi ? 1 : 0;
  return e;
}

util::BitVec pattern(std::size_t len) {
  util::BitVec v(len);
  for (std::size_t i = 0; i < len; ++i) v.set(i, (i * 7 + 3) % 5 < 2);
  return v;
}

/// The TCK totals a plan's PlanEnd carries.
struct Feed {
  std::uint64_t total = 0, generation = 0, observation = 0;
};

/// Feeds one plan: a generation ScanDr and a Readout, each with
/// navigation edges around a body of Shift-DR edges (`len` and `len`+1),
/// then an unstamped detector firing and bus lookup, and a PlanEnd
/// carrying the true totals (its generation count off by
/// `plan_end_error`). `bursts` sends each body as one on_shift_run,
/// otherwise as the per-edge calls of the same records.
Feed feed_plan(Sink& s, std::size_t len, bool bursts,
               std::uint64_t plan_end_error = 0) {
  std::uint64_t tck = 0;
  Feed f;
  const auto nav = [&](const char* state, TckPhase phase, bool tms) {
    s.on_event(edge(state, phase, tms, false, ++tck));
  };
  const auto body = [&](const util::BitVec& bits) {
    const Event first = edge("ShiftDr", TckPhase::Shift, bits.size() == 1,
                             bits[0], tck + 1);
    if (bursts) {
      s.on_shift_run(first, bits);
    } else {
      for (std::size_t i = 0; i < bits.size(); ++i) {
        s.on_event(shift_run_edge(first, bits, i));
      }
    }
    tck += bits.size();
  };
  s.on_event(span(EventKind::PlanBegin, "plan", tck, 2, 1));
  for (int op = 0; op < 2; ++op) {
    const bool readout = op == 1;
    const std::uint64_t t0 = tck;
    s.on_event(span(EventKind::TapOpBegin, readout ? "Readout" : "ScanDr",
                    tck, op, readout ? 1 : 0));
    nav("RunTestIdle", TckPhase::Other, true);
    nav("SelectDrScan", TckPhase::Other, false);
    nav("CaptureDr", TckPhase::Capture, false);
    body(pattern(len + op));
    nav("Exit1Dr", TckPhase::Other, true);
    nav("UpdateDr", TckPhase::Update, false);
    Event fired;
    fired.kind = EventKind::DetectorFired;
    fired.name = readout ? "SD" : "ND";
    fired.a = 3;
    s.on_event(fired);
    Event lookup;
    lookup.kind = EventKind::CacheLookup;
    lookup.name = "si.store";
    lookup.a = 5;
    lookup.b = 1;
    s.on_event(lookup);
    s.on_event(span(EventKind::TapOpEnd, readout ? "Readout" : "ScanDr", tck,
                    -1, -1, tck - t0));
    (readout ? f.observation : f.generation) += tck - t0;
  }
  f.total = tck;
  s.on_event(span(EventKind::PlanEnd, "plan", tck,
                  static_cast<std::int64_t>(f.generation + plan_end_error),
                  static_cast<std::int64_t>(f.observation), f.total));
  return f;
}

std::string jsonl(const Tracer& t) {
  std::ostringstream os;
  t.write_jsonl(os);
  return os.str();
}

TEST(ShiftRun, DefaultExpandsIntoTheEdgesOfTheBody) {
  for (const std::size_t len : kLengths) {
    Capture burst;
    Capture edges;
    const util::BitVec bits = pattern(len);
    const Event first = edge("ShiftIr", TckPhase::Shift, len == 1, bits[0], 40);
    burst.on_shift_run(first, bits);
    for (std::size_t i = 0; i < len; ++i) {
      edges.on_event(edge("ShiftIr", TckPhase::Shift, i + 1 == len, bits[i],
                          40 + i));
    }
    EXPECT_EQ(burst.count, len);
    EXPECT_EQ(burst.jsonl.str(), edges.jsonl.str()) << "L=" << len;
  }
}

TEST(ShiftRun, MetricsSinkFoldsABodyAsItsEdges) {
  for (const std::size_t len : kLengths) {
    Registry burst_reg;
    Registry edge_reg;
    MetricsSink burst(burst_reg);
    MetricsSink edges(edge_reg);
    burst.set_strict(true);
    edges.set_strict(true);
    const Feed f = feed_plan(burst, len, true);
    feed_plan(edges, len, false);
    EXPECT_EQ(burst_reg.to_json(), edge_reg.to_json()) << "L=" << len;
    EXPECT_EQ(burst.consistency_errors(), 0u);
    EXPECT_EQ(burst_reg.counter_value("tck.total"), f.total);
    EXPECT_EQ(burst_reg.counter_value("tck.phase.generation"), f.generation);
    EXPECT_EQ(burst_reg.counter_value("tck.phase.observation"), f.observation);
    EXPECT_EQ(burst_reg.counter_value("tck.state.shift"), 2 * len + 1);
  }
}

TEST(ShiftRun, MetricsSinkStrictCheckCatchesAMismatchAfterABurst) {
  for (const std::size_t len : kLengths) {
    Registry reg;
    MetricsSink strict(reg);
    strict.set_strict(true);
    EXPECT_THROW(feed_plan(strict, len, true, 1), std::logic_error);
    Registry lax_reg;
    MetricsSink lax(lax_reg);
    feed_plan(lax, len, true, 1);
    EXPECT_EQ(lax.consistency_errors(), 1u);
  }
}

TEST(ShiftRun, MetricsSinkKeepsTheKeySetOfItsRegistry) {
  // Counters resolved on first use: a stream without bus or detector
  // records creates no bus.* or detector.* keys.
  Registry reg;
  MetricsSink sink(reg);
  sink.on_event(span(EventKind::TapOpBegin, "ScanDr", 0, 0, 0));
  sink.on_shift_run(edge("ShiftDr", TckPhase::Shift, false, true, 1),
                    pattern(9));
  sink.on_event(span(EventKind::TapOpEnd, "ScanDr", 9, -1, -1, 9));
  std::vector<std::string> keys;
  for (const auto& [name, c] : reg.counters()) keys.push_back(name);
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "op.ScanDr", "tck.phase.generation",
                      "tck.phase.observation", "tck.state.capture",
                      "tck.state.other", "tck.state.pause", "tck.state.shift",
                      "tck.state.update", "tck.total"}));
  EXPECT_EQ(reg.counter_value("op.ScanDr"), 1u);
}

TEST(ShiftRun, TracerKeepsOrDropsABodyAsItsEdges) {
  for (const bool tap_edges : {true, false}) {
    for (const std::size_t len : kLengths) {
      for (const std::size_t capacity : {std::size_t{1} << 16, std::size_t{7}}) {
        TracerConfig cfg;
        cfg.tap_edges = tap_edges;
        cfg.capacity = capacity;
        Tracer burst(cfg);
        Tracer edges(cfg);
        feed_plan(burst, len, true);
        feed_plan(edges, len, false);
        // A record with no clock right after a body takes its last edge.
        const Event first = edge("ShiftDr", TckPhase::Shift, false, true, 5000);
        burst.on_shift_run(first, pattern(len));
        for (std::size_t i = 0; i < len; ++i) {
          edges.on_event(shift_run_edge(first, pattern(len), i));
        }
        EXPECT_EQ(burst.last_tck(), 5000 + len - 1);
        Event fired;
        fired.kind = EventKind::DetectorFired;
        fired.name = "ND";
        burst.on_event(fired);
        edges.on_event(fired);
        EXPECT_EQ(jsonl(burst), jsonl(edges))
            << "L=" << len << " tap_edges=" << tap_edges;
        EXPECT_EQ(burst.last_tck(), edges.last_tck());
        EXPECT_EQ(burst.recorded(), edges.recorded());
        EXPECT_EQ(burst.dropped(), edges.dropped());
      }
    }
  }
}

TEST(ShiftRun, TracerWithoutARingKeepsNothingButTheClock) {
  TracerConfig cfg;
  cfg.capacity = 0;
  Tracer t(cfg);
  const Feed f = feed_plan(t, 64, true);
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(t.recorded(), 0u);
  EXPECT_EQ(t.last_tck(), f.total);
  for (int k = 0; k < kEventKindCount; ++k) {
    EXPECT_FALSE(t.keeps(static_cast<EventKind>(k)));
  }
}

TEST(ShiftRun, HubRingAndExtraSinksGetTheStampedEdges) {
  for (const bool tap_edges : {true, false}) {
    for (const std::size_t len : kLengths) {
      TracerConfig cfg;
      cfg.tap_edges = tap_edges;
      Hub burst(cfg);
      Hub edges(cfg);
      Capture burst_extra;
      Capture edge_extra;
      burst.add_sink(&burst_extra);
      edges.add_sink(&edge_extra);
      burst.set_strict(true);
      edges.set_strict(true);
      feed_plan(burst, len, true);
      feed_plan(edges, len, false);
      EXPECT_EQ(jsonl(burst.tracer()), jsonl(edges.tracer()))
          << "L=" << len << " tap_edges=" << tap_edges;
      EXPECT_EQ(burst_extra.jsonl.str(), edge_extra.jsonl.str());
      EXPECT_EQ(burst.registry().to_json(), edges.registry().to_json());
      EXPECT_EQ(burst.tracer().last_tck(), edges.tracer().last_tck());
      // Every record the extra sink saw is stamped.
      EXPECT_EQ(burst_extra.jsonl.str().find("18446744073709551615"),
                std::string::npos);
    }
  }
}

TEST(ShiftRun, HubWithoutExtraSinksStampsWhatFollowsABody) {
  // With no extra sink the hub never expands a body it does not keep, so
  // its own clock must still reach the body's last edge: a record with no
  // clock right after the body is stamped with it.
  for (const std::size_t capacity : {std::size_t{0}, std::size_t{1} << 16}) {
    for (const bool tap_edges : {true, false}) {
      for (const std::size_t len : kLengths) {
        TracerConfig cfg;
        cfg.capacity = capacity;
        cfg.tap_edges = tap_edges;
        Hub burst(cfg);
        Hub edges(cfg);
        feed_plan(burst, len, true);
        feed_plan(edges, len, false);
        const Event first = edge("ShiftDr", TckPhase::Shift, false, true, 1000);
        burst.on_shift_run(first, pattern(len));
        for (std::size_t i = 0; i < len; ++i) {
          edges.on_event(shift_run_edge(first, pattern(len), i));
        }
        Event fired;
        fired.kind = EventKind::DetectorFired;
        fired.name = "ND";
        burst.on_event(fired);
        edges.on_event(fired);
        EXPECT_EQ(jsonl(burst.tracer()), jsonl(edges.tracer()))
            << "capacity=" << capacity << " tap_edges=" << tap_edges
            << " L=" << len;
        EXPECT_EQ(burst.registry().to_json(), edges.registry().to_json());
        EXPECT_EQ(burst.tracer().last_tck(), 1000 + len - 1);
        if (capacity == 0) {
          EXPECT_TRUE(burst.tracer().events().empty());
        }
      }
    }
  }
}

TEST(ShiftRun, AggregatingSinkFoldsABodyAsItsEdges) {
  for (const std::size_t len : kLengths) {
    AggregatingSink burst;
    AggregatingSink edges;
    feed_plan(burst, len, true);
    feed_plan(edges, len, false);
    EXPECT_EQ(burst.snapshot().to_json(), edges.snapshot().to_json())
        << "L=" << len;
  }
}

TEST(ShiftRun, DefaultExpandsAnEdgeRunIntoItsEdges) {
  // An Update-DR pulse's five records, stamped from their first TCK.
  const Event run[] = {edge("Run-Test/Idle", TckPhase::Other, true, false, 0),
                       edge("Select-DR-Scan", TckPhase::Other, false, false, 0),
                       edge("Capture-DR", TckPhase::Capture, true, false, 0),
                       edge("Exit1-DR", TckPhase::Other, true, false, 0),
                       edge("Update-DR", TckPhase::Update, false, false, 0)};
  Capture batched;
  Capture edges;
  batched.on_edges(run, std::size(run), 77);
  for (std::size_t i = 0; i < std::size(run); ++i) {
    Event e = run[i];
    e.tck = 77 + i;
    edges.on_event(e);
  }
  EXPECT_EQ(batched.count, std::size(run));
  EXPECT_EQ(batched.jsonl.str(), edges.jsonl.str());
}

TEST(ShiftRun, NullSinkTakesABody) {
  NullSink sink;
  feed_plan(sink, 129, true);
  SUCCEED();
}

}  // namespace
}  // namespace jsi::obs

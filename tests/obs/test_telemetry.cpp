#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "util/json.hpp"
#include "obs/profile.hpp"

// ---- allocation counting ----------------------------------------------------
//
// The worker publish path (begin_unit / end_unit / add_idle) must be
// allocation-free: it runs between every campaign unit on every worker,
// and a single stray allocation there would show up as telemetry
// overhead and (under contention) as allocator lock traffic. The global
// operator new below counts per-thread so the check ignores whatever
// other test threads are doing.
//
// Replacing global operator new/delete fights the sanitizer runtimes'
// own allocator interception (ASan flags the malloc/free pairing as an
// alloc-dealloc mismatch), so the counter only exists in plain builds;
// the sanitize side-builds still run every other telemetry test.

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define JSI_COUNTING_NEW 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define JSI_COUNTING_NEW 0
#else
#define JSI_COUNTING_NEW 1
#endif
#else
#define JSI_COUNTING_NEW 1
#endif

namespace {
thread_local std::uint64_t g_thread_allocs = 0;
}  // namespace

#if JSI_COUNTING_NEW

// GCC cannot see that these replacements pair malloc with free and
// flags the delete path as mismatched; the pairing below is exact.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  ++g_thread_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // JSI_COUNTING_NEW

namespace jsi::obs {
namespace {

TelemetryConfig enabled_config() {
  TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.interval_ms = 1000;  // periodic sampling not exercised in unit tests
  return cfg;
}

TEST(WorkerProgress, PublishPathAllocatesNothing) {
#if !JSI_COUNTING_NEW
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
  Telemetry tele(enabled_config(), 1, 4);
  WorkerProgress* slot = tele.worker_slot(0);
  ASSERT_NE(slot, nullptr);

  UnitDelta d;
  d.busy_ns = 1000;
  d.transitions = 7;
  d.tcks = 42;
  d.cache_hits = 5;
  d.cache_misses = 3;

  const std::uint64_t before = g_thread_allocs;
  for (int i = 0; i < 1000; ++i) {
    slot->add_idle(5);
    slot->begin_unit("unit_label");
    slot->end_unit(d);
  }
  EXPECT_EQ(g_thread_allocs, before)
      << "worker publish path must not allocate";
}

TEST(Telemetry, DisabledHandsOutNoSlotsAndNeverEmits) {
  std::ostringstream sink;
  TelemetryConfig cfg;  // enabled = false
  cfg.sink = &sink;
  Telemetry tele(cfg, 4, 10);
  EXPECT_FALSE(tele.enabled());
  EXPECT_EQ(tele.worker_slot(0), nullptr);
  tele.start();
  tele.stop();
  EXPECT_EQ(tele.heartbeats(), 0u);
  EXPECT_TRUE(sink.str().empty());
}

TEST(Telemetry, SampleSeqStrictlyIncreasesAndCountsNeverRegress) {
  Telemetry tele(enabled_config(), 2, 8);
  WorkerProgress* w0 = tele.worker_slot(0);
  WorkerProgress* w1 = tele.worker_slot(1);
  ASSERT_NE(w0, nullptr);
  ASSERT_NE(w1, nullptr);

  UnitDelta d;
  d.busy_ns = 100;
  d.transitions = 10;
  d.tcks = 50;
  d.cache_hits = 3;
  d.cache_misses = 1;

  Snapshot prev = tele.sample();
  for (int i = 0; i < 8; ++i) {
    WorkerProgress* w = i % 2 ? w1 : w0;
    w->begin_unit("u");
    w->end_unit(d);
    const Snapshot s = tele.sample();
    EXPECT_GT(s.seq, prev.seq);
    EXPECT_GE(s.t_ms, prev.t_ms);
    EXPECT_GE(s.units_done, prev.units_done);
    EXPECT_GE(s.transitions, prev.transitions);
    EXPECT_GE(s.tcks, prev.tcks);
    prev = s;
  }
  EXPECT_EQ(prev.units_done, 8u);
  EXPECT_EQ(prev.transitions, 80u);
  EXPECT_EQ(prev.tcks, 400u);
  EXPECT_GT(prev.units_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(prev.cache_hit_rate, 0.75);
}

TEST(Telemetry, SampleIsMonotoneUnderConcurrentPublishing) {
  Telemetry tele(enabled_config(), 2, 100000);
  WorkerProgress* w0 = tele.worker_slot(0);
  WorkerProgress* w1 = tele.worker_slot(1);
  ASSERT_NE(w0, nullptr);
  ASSERT_NE(w1, nullptr);

  std::atomic<bool> go{false};
  auto publisher = [&go](std::stop_token stop, WorkerProgress* w) {
    while (!go.load()) {
    }
    UnitDelta d;
    d.transitions = 3;
    d.tcks = 9;
    for (int i = 0; i < 50000 && !stop.stop_requested(); ++i) {
      w->begin_unit("spin");
      w->end_unit(d);
    }
  };
  // jthreads stop and join on every exit path, a failed ASSERT's early
  // return included, so a failure cannot abort the whole binary.
  std::jthread t0(publisher, w0), t1(publisher, w1);
  go.store(true);

  Snapshot prev = tele.sample();
  for (int i = 0; i < 200; ++i) {
    const Snapshot s = tele.sample();
    ASSERT_GT(s.seq, prev.seq);
    ASSERT_GE(s.units_done, prev.units_done);
    ASSERT_GE(s.transitions, prev.transitions);
    ASSERT_GE(s.tcks, prev.tcks);
    ASSERT_GE(s.units_done + s.units_running, s.units_done);
    // At most one unit in flight per slot: no wrap, and <= 2 slots.
    ASSERT_LE(s.units_running, 2u);
    prev = s;
  }
}

TEST(Telemetry, StartStopEmitsAtLeastTwoParseableHeartbeats) {
  std::ostringstream sink;
  TelemetryConfig cfg = enabled_config();
  cfg.sink = &sink;
  Telemetry tele(cfg, 1, 2);

  tele.start();
  WorkerProgress* w = tele.worker_slot(0);
  ASSERT_NE(w, nullptr);
  UnitDelta d;
  d.tcks = 10;
  for (int i = 0; i < 2; ++i) {
    w->begin_unit("unit");
    w->end_unit(d);
  }
  tele.stop();
  tele.stop();  // idempotent

  EXPECT_GE(tele.heartbeats(), 2u);
  std::istringstream lines(sink.str());
  std::string line;
  std::size_t records = 0;
  std::uint64_t prev_seq = 0, prev_done = 0;
  while (std::getline(lines, line)) {
    std::string err;
    const auto doc = util::json::parse(line, &err);
    ASSERT_TRUE(doc.has_value()) << err << " in: " << line;
    ASSERT_TRUE(doc->is_object());
    EXPECT_EQ(doc->find("schema")->str, "jsi.telemetry.v2");
    const std::uint64_t seq =
        static_cast<std::uint64_t>(doc->find("seq")->number);
    const std::uint64_t done =
        static_cast<std::uint64_t>(doc->find("units_done")->number);
    if (records > 0) {
      EXPECT_GT(seq, prev_seq);
      EXPECT_GE(done, prev_done);
    }
    prev_seq = seq;
    prev_done = done;
    ++records;
  }
  EXPECT_GE(records, 2u);
  EXPECT_EQ(prev_done, 2u);  // the final heartbeat sees every unit
}

TEST(Telemetry, SinkPathOpenFailureThrowsBeforeAnyUnitRuns) {
  TelemetryConfig cfg = enabled_config();
  cfg.sink_path = "/nonexistent-dir-for-telemetry/heartbeats.jsonl";
  Telemetry tele(cfg, 1, 1);
  EXPECT_THROW(tele.start(), std::runtime_error);
}

// ---- JSONL schema golden ----------------------------------------------------

Snapshot golden_snapshot() {
  Snapshot s;
  s.seq = 3;
  s.wall_ms = 1754500000123;
  s.t_ms = 750;
  s.units_total = 12;
  s.units_done = 7;
  s.units_running = 2;
  s.transitions = 900;
  s.tcks = 4500;
  s.units_per_sec = 9.5;
  s.transitions_per_sec = 1200.0;
  s.tcks_per_sec = 6000.0;
  s.cache_hit_rate = 0.75;
  WorkerSnapshot w0;
  w0.worker = 0;
  w0.units_started = 4;
  w0.units_completed = 4;
  w0.busy_ns = 600000;
  w0.idle_ns = 200000;
  w0.utilization = 0.75;
  WorkerSnapshot w1;
  w1.worker = 1;
  w1.units_started = 5;
  w1.units_completed = 3;
  w1.busy_ns = 500000;
  w1.idle_ns = 500000;
  w1.utilization = 0.5;
  w1.current_unit = "multibus_\"3\"";
  s.workers = {w0, w1};
  return s;
}

TEST(Telemetry, HeartbeatJsonlMatchesSchemaGolden) {
  std::ostringstream os;
  write_snapshot_jsonl(os, golden_snapshot());
  EXPECT_EQ(
      os.str(),
      "{\"schema\":\"jsi.telemetry.v2\",\"seq\":3,"
      "\"wall_ms\":1754500000123,\"t_ms\":750,\"units_total\":12,"
      "\"units_done\":7,\"units_running\":2,\"units_per_sec\":9.5,"
      "\"transitions\":900,\"transitions_per_sec\":1200,"
      "\"tcks\":4500,\"tcks_per_sec\":6000,\"cache_hit_rate\":0.75,"
      "\"workers\":["
      "{\"worker\":0,\"units_started\":4,\"units_done\":4,"
      "\"busy_ns\":600000,\"idle_ns\":200000,\"utilization\":0.75,"
      "\"unit\":null},"
      "{\"worker\":1,\"units_started\":5,\"units_done\":3,"
      "\"busy_ns\":500000,\"idle_ns\":500000,\"utilization\":0.5,"
      "\"unit\":\"multibus_\\\"3\\\"\"}]}\n");
}

TEST(Telemetry, HeartbeatJsonlRoundTripsThroughTheParser) {
  std::ostringstream os;
  write_snapshot_jsonl(os, golden_snapshot());
  std::string err;
  const auto doc = util::json::parse(os.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_DOUBLE_EQ(doc->find("units_per_sec")->number, 9.5);
  const util::json::Value* workers = doc->find("workers");
  ASSERT_NE(workers, nullptr);
  ASSERT_EQ(workers->array.size(), 2u);
  EXPECT_EQ(workers->array[1].find("unit")->str, "multibus_\"3\"");
}

// ---- progress line ----------------------------------------------------------

TEST(Telemetry, ProgressLineRendersBarRateEtaAndUtilization) {
  Snapshot s = golden_snapshot();
  s.units_per_sec = 3.1;
  for (WorkerSnapshot& w : s.workers) {
    w.busy_ns = 87;
    w.idle_ns = 13;
  }
  // 7/12 fills 11 of 20 cells; eta = 5 / 3.1 = 1.61s; 174/200 ns busy.
  EXPECT_EQ(render_progress_line(s),
            "[===========>........] 7/12 units | 3.1 u/s | eta 1.61s | "
            "2 workers 87% busy");
}

TEST(Telemetry, ProgressLineHandlesDoneAndUnknownEta) {
  Snapshot s;
  s.units_total = 4;
  s.units_done = 4;
  s.units_per_sec = 8.0;
  EXPECT_EQ(render_progress_line(s),
            "[====================] 4/4 units | 8 u/s | eta 0s | 0 workers");

  Snapshot fresh;
  fresh.units_total = 4;
  const std::string line = render_progress_line(fresh);
  EXPECT_NE(line.find("0/4 units"), std::string::npos);
  EXPECT_NE(line.find("eta --"), std::string::npos);
}

// ---- profile report ---------------------------------------------------------

std::vector<ProfileUnit> profile_units() {
  std::vector<ProfileUnit> units(3);
  units[0] = {"fast", 100, 60, 40, false, false};
  units[1] = {"slow", 1000, 700, 300, true, false};
  units[2] = {"broken", 500, 300, 200, false, true};
  return units;
}

ProfileTotals totals_of(const std::vector<ProfileUnit>& units) {
  ProfileTotals t;
  for (const ProfileUnit& u : units) {
    ++t.units;
    t.total_tcks += u.total_tcks;
    t.generation_tcks += u.generation_tcks;
    t.observation_tcks += u.observation_tcks;
    if (u.violation) ++t.violations;
    if (u.failed) ++t.failures;
  }
  return t;
}

TEST(ProfileReport, RendersPhaseSplitTopKAndHistogramSummary) {
  Registry reg;
  reg.counter("session.enhanced").inc(2);
  reg.counter("session.bist").inc(1);
  reg.counter("tck.total").inc(1600);
  reg.counter("tck.state.shift").inc(1200);
  reg.counter("tck.state.capture").inc(200);
  reg.counter("tck.state.update").inc(200);
  reg.counter("bus.cache_hits").inc(30);
  reg.counter("bus.cache_misses").inc(10);
  Histogram& h = reg.histogram("op.tcks", {10, 100, 1000});
  for (int i = 0; i < 90; ++i) h.observe(50);
  for (int i = 0; i < 10; ++i) h.observe(500);

  const std::string text =
      profile_report(totals_of(profile_units()), profile_units(), reg);
  EXPECT_NE(text.find("== campaign profile ==\n"), std::string::npos);
  EXPECT_NE(text.find("units: 3 (1 violations, 1 failures)\n"),
            std::string::npos);
  EXPECT_NE(text.find("tcks: total=1600 generation=1060 (66.25%) "
                      "observation=540 (33.75%)\n"),
            std::string::npos);
  EXPECT_NE(text.find("sessions by kind: bist=1 enhanced=2\n"),
            std::string::npos);
  EXPECT_NE(text.find("tck by state: shift=1200 (75.00%)"),
            std::string::npos);
  EXPECT_NE(text.find("op.tcks: count=100 mean="), std::string::npos);
  EXPECT_NE(text.find("p95="), std::string::npos);
  EXPECT_NE(text.find("bus waveform store: 30/40 wire hits (75.00%)\n"),
            std::string::npos);
  // Top-k order: slow (1000) > broken (500, FAILED) > fast (100).
  const std::size_t slow = text.find("1. slow tcks=1000");
  const std::size_t broken = text.find("2. broken tcks=500");
  const std::size_t fast = text.find("3. fast tcks=100");
  ASSERT_NE(slow, std::string::npos);
  ASSERT_NE(broken, std::string::npos);
  ASSERT_NE(fast, std::string::npos);
  EXPECT_LT(slow, broken);
  EXPECT_LT(broken, fast);
  EXPECT_NE(text.find("FAILED"), std::string::npos);
  // Without a telemetry snapshot the workers block says how to get one.
  EXPECT_NE(text.find("workers: no telemetry captured"), std::string::npos);
}

TEST(ProfileReport, HeadlineComesFromTotalsNotRetainedUnits) {
  // Aggregate mode folds per-unit outcomes away: the headline must still
  // report the campaign totals.
  ProfileTotals t;
  t.units = 150;
  t.violations = 56;
  t.failures = 0;
  t.total_tcks = 75900;
  t.generation_tcks = 60000;
  t.observation_tcks = 15900;
  const std::string text = profile_report(t, {}, Registry());
  EXPECT_NE(text.find("units: 150 (56 violations, 0 failures)\n"),
            std::string::npos);
  EXPECT_NE(text.find("tcks: total=75900 generation=60000"),
            std::string::npos);
  EXPECT_EQ(text.find("slowest units"), std::string::npos);
}

TEST(ProfileReport, FoldsTelemetryWorkerUtilizationWhenPresent) {
  Registry reg;
  const Snapshot tele = golden_snapshot();
  const std::string text =
      profile_report(totals_of(profile_units()), profile_units(), reg, &tele);
  EXPECT_NE(text.find("workers (measured, 750 ms wall):\n"),
            std::string::npos);
  EXPECT_NE(text.find("w0: units=4 busy=0.60 ms idle=0.20 ms "
                      "utilization=75.00%\n"),
            std::string::npos);
  EXPECT_NE(text.find("w1: units=3"), std::string::npos);
}

}  // namespace
}  // namespace jsi::obs

// Live telemetry vs the determinism contract: enabling heartbeats must
// not move a single byte of report/metrics/events at any shard count,
// while the heartbeat stream itself must be present (>= 2 records),
// schema-valid, and monotone. Runs the real sampler thread against the
// real worker pool, so the campaign_sanitize TSan sub-build exercises
// the lock-free slot publishing end to end.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/session.hpp"
#include "util/json.hpp"
#include "scenario/run.hpp"
#include "scenario/spec.hpp"

namespace jsi {
namespace {

using core::CampaignConfig;
using core::CampaignResult;
using core::CampaignRunner;
using core::ObservationMethod;

core::SocConfig soc_cfg(std::size_t n_wires) {
  core::SocConfig cfg;
  cfg.n_wires = n_wires;
  return cfg;
}

CampaignRunner make_campaign(std::size_t shards,
                             const obs::TelemetryConfig& telemetry) {
  CampaignConfig cfg;
  cfg.shards = shards;
  cfg.keep_events = true;
  cfg.trace.capacity = 4096;
  cfg.telemetry = telemetry;
  CampaignRunner runner(cfg);
  for (int i = 0; i < 4; ++i) {
    runner.add_enhanced("enh" + std::to_string(i), soc_cfg(4),
                        ObservationMethod::OnceAtEnd);
  }
  runner.add_parallel("par", soc_cfg(6), ObservationMethod::PerInitValue, 3);
  runner.add_conventional("conv", soc_cfg(4), ObservationMethod::OnceAtEnd);
  runner.add_bist("bist", soc_cfg(4));
  return runner;
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

/// Parse a heartbeat stream, asserting schema and monotonicity along the
/// way; returns the parsed records.
std::vector<util::json::Value> checked_heartbeats(const std::string& jsonl) {
  std::vector<util::json::Value> records;
  std::istringstream lines(jsonl);
  std::string line;
  std::uint64_t prev_seq = 0, prev_done = 0, prev_t = 0;
  while (std::getline(lines, line)) {
    std::string err;
    auto doc = util::json::parse(line, &err);
    EXPECT_TRUE(doc.has_value()) << err << " in: " << line;
    if (!doc) continue;
    EXPECT_TRUE(doc->is_object());
    EXPECT_EQ(doc->find("schema")->str, "jsi.telemetry.v2");
    const auto u64 = [&doc](const char* key) {
      const util::json::Value* v = doc->find(key);
      EXPECT_NE(v, nullptr) << key;
      return v ? static_cast<std::uint64_t>(v->number) : 0;
    };
    const std::uint64_t seq = u64("seq");
    const std::uint64_t done = u64("units_done");
    const std::uint64_t t = u64("t_ms");
    if (!records.empty()) {
      EXPECT_GT(seq, prev_seq);
      EXPECT_GE(done, prev_done);
      EXPECT_GE(t, prev_t);
    }
    prev_seq = seq;
    prev_done = done;
    prev_t = t;
    records.push_back(std::move(*doc));
  }
  return records;
}

TEST(CampaignTelemetry, ArtifactsByteIdenticalWithTelemetryOnAt1And4Shards) {
  // Baseline: telemetry fully disabled.
  const CampaignResult base = make_campaign(1, {}).run();
  ASSERT_EQ(base.failures, 0u);
  EXPECT_FALSE(base.telemetry.has_value());
  const std::string text = base.to_text();
  const std::string json = base.metrics.to_json();
  const std::string events = events_transcript(base);

  for (std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    std::ostringstream sink;
    obs::TelemetryConfig tcfg;
    tcfg.enabled = true;
    tcfg.interval_ms = 2;  // force periodic samples mid-run
    tcfg.sink = &sink;
    const CampaignResult r = make_campaign(shards, tcfg).run();

    // The determinism pin: the three artifacts do not move a byte.
    EXPECT_EQ(r.to_text(), text) << shards << " shards";
    EXPECT_EQ(r.metrics.to_json(), json) << shards << " shards";
    EXPECT_EQ(events_transcript(r), events) << shards << " shards";

    // The heartbeat stream itself: >= 2 schema-valid monotone records.
    const auto records = checked_heartbeats(sink.str());
    ASSERT_GE(records.size(), 2u) << shards << " shards";
    const util::json::Value& last = records.back();
    EXPECT_EQ(last.find("units_total")->number, 7.0);
    EXPECT_EQ(last.find("units_done")->number, 7.0);
    EXPECT_GT(last.find("units_per_sec")->number, 0.0);
    EXPECT_GT(last.find("tcks")->number, 0.0);
    const util::json::Value* workers = last.find("workers");
    ASSERT_NE(workers, nullptr);
    ASSERT_EQ(workers->array.size(), shards);
    double busy = 0.0, done = 0.0;
    bool any_utilized = false;
    for (const util::json::Value& w : workers->array) {
      busy += w.find("busy_ns")->number;
      done += w.find("units_done")->number;
      if (w.find("utilization")->number > 0.0) any_utilized = true;
    }
    EXPECT_EQ(done, 7.0) << "per-worker unit counts must sum to the total";
    EXPECT_GT(busy, 0.0);
    EXPECT_TRUE(any_utilized);

    // The result carries the final snapshot for post-run profiling.
    ASSERT_TRUE(r.telemetry.has_value());
    EXPECT_EQ(r.telemetry->units_done, 7u);
    EXPECT_EQ(r.telemetry->workers.size(), shards);
  }
}

// ---- scenario layer ---------------------------------------------------------

scenario::ScenarioSpec telemetry_spec() {
  scenario::ScenarioSpec spec;
  spec.name = "telemetry-probe";
  spec.topology.kind = scenario::TopologyKind::Soc;
  spec.topology.n_wires = 4;
  spec.campaign.keep_events = true;
  for (int i = 0; i < 6; ++i) {
    scenario::SessionSpec s;
    s.kind = i % 2 ? scenario::SessionKind::Enhanced
                   : scenario::SessionKind::Conventional;
    s.method = 1;
    spec.sessions.push_back(s);
  }
  return spec;
}

TEST(CampaignTelemetry, ScenarioRunStreamsHeartbeatsToFileAt4Shards) {
  const scenario::ScenarioSpec spec = telemetry_spec();

  scenario::RunOptions plain;
  plain.shards = 4;
  const scenario::ScenarioOutcome base = scenario::run_scenario(spec, plain);

  const std::string path = testing::TempDir() + "jsi_telemetry_probe.jsonl";
  scenario::TelemetrySpec tele;
  tele.enabled = true;
  tele.interval_ms = 2;
  tele.path = path;
  scenario::RunOptions opt;
  opt.shards = 4;
  opt.telemetry = tele;
  opt.profile = true;
  const scenario::ScenarioOutcome live = scenario::run_scenario(spec, opt);

  // Telemetry + profile leave the deterministic artifacts untouched.
  EXPECT_EQ(live.report_text, base.report_text);
  EXPECT_EQ(live.metrics_json, base.metrics_json);
  EXPECT_EQ(live.events_jsonl, base.events_jsonl);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream buf;
  buf << in.rdbuf();
  const auto records = checked_heartbeats(buf.str());
  EXPECT_GE(records.size(), 2u);
  EXPECT_EQ(records.back().find("units_done")->number, 6.0);
  EXPECT_GT(records.back().find("units_per_sec")->number, 0.0);

  // The profile report folds the measured worker utilization in.
  EXPECT_NE(live.profile_text.find("== campaign profile =="),
            std::string::npos);
  EXPECT_NE(live.profile_text.find("workers (measured,"), std::string::npos);
  EXPECT_NE(live.profile_text.find("top 5 slowest units by tcks:"),
            std::string::npos);

  // Without the profile flag the outcome stays lean.
  EXPECT_TRUE(base.profile_text.empty());
  std::remove(path.c_str());
}

TEST(CampaignTelemetry, SpecTelemetrySectionRoundTripsAndDefaultsOff) {
  scenario::ScenarioSpec spec = telemetry_spec();
  EXPECT_TRUE(spec.telemetry.is_default());
  spec.telemetry.enabled = true;
  spec.telemetry.interval_ms = 50;
  spec.telemetry.path = "hb.jsonl";
  EXPECT_FALSE(spec.telemetry.is_default());
}

}  // namespace
}  // namespace jsi

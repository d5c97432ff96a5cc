// Scenario IR: parsing happy paths for all six session kinds, the
// malformed-spec diagnostics (exact "path: reason" strings — the CLI's
// error UX is part of the contract), deterministic random-defect
// resolution, round-trip serialization, and campaign lowering.

#include <gtest/gtest.h>

#include <string>

#include "scenario/build.hpp"
#include "scenario/parse.hpp"
#include "scenario/run.hpp"
#include "scenario/serialize.hpp"
#include "scenario/spec.hpp"

using namespace jsi;
using scenario::check_shards;
using scenario::parse_scenario;
using scenario::ScenarioSpec;
using scenario::SpecError;

namespace {

std::string wrap(const std::string& body) {
  return "{\"name\":\"t\"," + body + "}";
}

std::string soc_doc(const std::string& extra = "") {
  return wrap(R"("topology":{"kind":"soc","n_wires":8},)"
              R"("sessions":[{"kind":"enhanced","method":1}])" + extra);
}

// EXPECT_SPEC_ERROR(text, "path: reason") — the full what() is pinned.
void expect_error(const std::string& text, const std::string& what) {
  try {
    parse_scenario(text);
    FAIL() << "expected SpecError(\"" << what << "\")";
  } catch (const SpecError& e) {
    EXPECT_EQ(std::string(e.what()), what);
  }
}

// ---- happy paths ----------------------------------------------------------

TEST(ScenarioParse, SocDefaultsFilledIn) {
  const ScenarioSpec s = parse_scenario(soc_doc());
  EXPECT_EQ(s.name, "t");
  EXPECT_EQ(s.topology.kind, scenario::TopologyKind::Soc);
  EXPECT_EQ(s.topology.n_wires, 8u);
  EXPECT_EQ(s.topology.m_extra_cells, 1u);
  EXPECT_EQ(s.topology.ir_width, 4u);
  EXPECT_EQ(s.topology.idcode, 0x0A571001u);
  EXPECT_DOUBLE_EQ(s.topology.bus.vdd, 1.8);
  EXPECT_EQ(s.topology.bus.samples, 2048u);
  EXPECT_EQ(s.campaign.shards, 1u);
  EXPECT_TRUE(s.campaign.strict_metrics);
  EXPECT_TRUE(s.campaign.warm_prototype);
  EXPECT_EQ(s.obs.trace_capacity, std::size_t{1} << 16);
  ASSERT_EQ(s.sessions.size(), 1u);
  EXPECT_EQ(s.sessions[0].kind, scenario::SessionKind::Enhanced);
  EXPECT_EQ(s.sessions[0].method, 1);
  EXPECT_EQ(s.width(), 8u);
}

TEST(ScenarioParse, AllSocSessionKinds) {
  const ScenarioSpec s = parse_scenario(
      wrap(R"("topology":{"kind":"soc","n_wires":4},"sessions":[)"
           R"({"kind":"enhanced","method":3},)"
           R"({"kind":"conventional","method":2},)"
           R"({"kind":"parallel","method":2,"guard":3},)"
           R"({"kind":"bist"}])"));
  ASSERT_EQ(s.sessions.size(), 4u);
  EXPECT_EQ(s.sessions[0].method, 3);
  EXPECT_EQ(s.sessions[1].kind, scenario::SessionKind::Conventional);
  EXPECT_EQ(s.sessions[2].guard, 3u);
  EXPECT_EQ(s.sessions[3].kind, scenario::SessionKind::Bist);
}

TEST(ScenarioParse, MultiBusWithBusIndexedDefects) {
  const ScenarioSpec s = parse_scenario(wrap(
      R"("topology":{"kind":"multibus_soc","n_buses":3,"wires_per_bus":8},)"
      R"("defects":[{"kind":"crosstalk","bus":2,"wire":5,"severity":6},)"
      R"({"kind":"series_resistance","bus":0,"wire":1,"ohms":800}],)"
      R"("sessions":[{"kind":"multibus","method":2}])"));
  EXPECT_EQ(s.topology.idcode, 0x0A572001u);
  EXPECT_EQ(s.width(), 8u);
  ASSERT_EQ(s.defects.size(), 2u);
  EXPECT_EQ(s.defects[0].bus, 2u);
  EXPECT_EQ(s.defects[1].kind, scenario::DefectKind::SeriesResistance);
  const core::SocConfig cfg = scenario::soc_config(s);
  EXPECT_EQ(cfg.n_buses, 3u);
  EXPECT_EQ(cfg.n_wires, 8u);
  EXPECT_EQ(cfg.idcode, 0x0A572001u);
}

TEST(ScenarioParse, BoardWithFaultsAndAllAlgorithms) {
  const ScenarioSpec s = parse_scenario(wrap(
      R"("topology":{"kind":"board","n_nets":6,"float_value":false},)"
      R"("defects":[{"kind":"stuck","net":1,"value":true},)"
      R"({"kind":"open","net":4},)"
      R"({"kind":"short","nets":[0,2,3],"wired_and":false}],)"
      R"("sessions":[{"kind":"extest"},)"
      R"({"kind":"extest","algorithm":"counting_sequence"},)"
      R"({"kind":"extest","algorithm":"true_complement_counting"}])"));
  EXPECT_EQ(s.width(), 6u);
  EXPECT_FALSE(s.topology.float_value);
  EXPECT_EQ(s.sessions[0].algorithm, scenario::ExtestAlgorithm::WalkingOnes);
  EXPECT_EQ(s.sessions[2].algorithm,
            scenario::ExtestAlgorithm::TrueComplementCounting);
  const ict::BoardNets board = scenario::board_nets(s);
  EXPECT_EQ(board.fault(1), ict::NetFault::StuckAt1);
  EXPECT_EQ(board.fault(4), ict::NetFault::Open);
  EXPECT_EQ(board.fault(0), ict::NetFault::WiredOrShort);
}

TEST(ScenarioParse, BusParamsAndCampaignAndObsBlocks) {
  const ScenarioSpec s = parse_scenario(wrap(
      R"("topology":{"kind":"soc","n_wires":8,"ir_width":5,"idcode":4096,)"
      R"("bus":{"vdd":1.2,"r_driver":300,"samples":512}},)"
      R"("sessions":[{"kind":"enhanced","name":"only","method":2}],)"
      R"("campaign":{"shards":4,"seed":9,"keep_events":true,)"
      R"("strict_metrics":false,"warm_prototype":false},)"
      R"("obs":{"trace_capacity":64,"tap_edges":false,)"
      R"("cache_lookups":true,"tck_period_ps":5000})"));
  EXPECT_EQ(s.topology.ir_width, 5u);
  EXPECT_EQ(s.topology.idcode, 4096u);
  EXPECT_DOUBLE_EQ(s.topology.bus.vdd, 1.2);
  EXPECT_EQ(s.topology.bus.samples, 512u);
  EXPECT_EQ(s.campaign.shards, 4u);
  EXPECT_EQ(s.campaign.seed, 9u);
  EXPECT_TRUE(s.campaign.keep_events);
  EXPECT_FALSE(s.campaign.strict_metrics);
  EXPECT_FALSE(s.campaign.warm_prototype);
  EXPECT_EQ(s.obs.trace_capacity, 64u);
  EXPECT_FALSE(s.obs.tap_edges);
  EXPECT_TRUE(s.obs.cache_lookups);
  EXPECT_EQ(s.obs.tck_period_ps, 5000u);
  EXPECT_EQ(s.sessions[0].name, "only");
}

// ---- malformed specs: exact diagnostics -----------------------------------

TEST(ScenarioParse, DiagnosticStrings) {
  expect_error("[]", "scenario: expected a JSON object");
  expect_error("{}", "name: required");
  expect_error(R"({"name":""})", "name: must not be empty");
  expect_error(R"({"name":"t","bogus":1})", "bogus: unknown key");
  expect_error(wrap(R"("topology":{"kind":"mesh"},"sessions":[])"),
               "topology.kind: expected \"soc\", \"multibus_soc\" or "
               "\"board\"");
  expect_error(wrap(R"("topology":{"kind":"soc","n_wires":1},"sessions":[])"),
               "topology.n_wires: must be an integer >= 2");
  expect_error(
      wrap(R"("topology":{"kind":"soc","bus":{"n_wires":8}},"sessions":[])"),
      "topology.bus.n_wires: set by the topology, remove this key");
  expect_error(wrap(R"("topology":{"kind":"soc"},"sessions":[])"),
               "sessions: at least one session is required");
  expect_error(wrap(R"("topology":{"kind":"soc"},)"
                    R"("sessions":[{"kind":"wiggle"}])"),
               "sessions[0].kind: unknown session kind \"wiggle\"");
  expect_error(wrap(R"("topology":{"kind":"soc"},)"
                    R"("sessions":[{"kind":"extest"}])"),
               "sessions[0].kind: \"extest\" requires topology kind "
               "\"board\"");
  expect_error(wrap(R"("topology":{"kind":"board"},)"
                    R"("sessions":[{"kind":"enhanced"}])"),
               "sessions[0].kind: \"enhanced\" requires topology kind "
               "\"soc\"");
  expect_error(wrap(R"("topology":{"kind":"soc"},)"
                    R"("sessions":[{"kind":"parallel","method":3}])"),
               "sessions[0].method: parallel sessions support methods 1 "
               "and 2");
  expect_error(wrap(R"("topology":{"kind":"soc"},)"
                    R"("sessions":[{"kind":"bist","method":1}])"),
               "sessions[0].method: not valid for bist sessions");
  expect_error(wrap(R"("topology":{"kind":"soc"},)"
                    R"("sessions":[{"kind":"enhanced","method":4}])"),
               "sessions[0].method: must be 1, 2 or 3");
  expect_error(wrap(R"("topology":{"kind":"soc"},)"
                    R"("sessions":[{"kind":"enhanced","guard":2}])"),
               "sessions[0].guard: only valid for parallel sessions");
  expect_error(wrap(R"("topology":{"kind":"soc"},)"
                    R"("sessions":[{"kind":"enhanced","algorithm":"x"}])"),
               "sessions[0].algorithm: only valid for extest sessions");
  expect_error(
      wrap(R"("topology":{"kind":"board"},)"
           R"("sessions":[{"kind":"extest","algorithm":"spiral"}])"),
      "sessions[0].algorithm: unknown algorithm \"spiral\"");
  expect_error(wrap(R"("topology":{"kind":"soc","n_wires":8},)"
                    R"("defects":[{"kind":"crosstalk","wire":8,)"
                    R"("severity":6}],"sessions":[{"kind":"bist"}])"),
               "defects[0].wire: must be an integer < 8");
  expect_error(wrap(R"("topology":{"kind":"soc","n_wires":8},)"
                    R"("defects":[{"kind":"crosstalk","bus":0,"wire":1,)"
                    R"("severity":6}],"sessions":[{"kind":"bist"}])"),
               "defects[0].bus: only valid for multibus_soc topology");
  expect_error(wrap(R"("topology":{"kind":"soc","n_wires":8},)"
                    R"("defects":[{"kind":"stuck","net":0,"value":true}],)"
                    R"("sessions":[{"kind":"bist"}])"),
               "defects[0].kind: \"stuck\" requires topology kind \"board\"");
  expect_error(wrap(R"("topology":{"kind":"board"},)"
                    R"("defects":[{"kind":"crosstalk","wire":0,)"
                    R"("severity":6}],"sessions":[{"kind":"extest"}])"),
               "defects[0].kind: \"crosstalk\" is not valid for a board "
               "topology");
  expect_error(wrap(R"("topology":{"kind":"board","n_nets":4},)"
                    R"("defects":[{"kind":"short","nets":[2],)"
                    R"("wired_and":true}],"sessions":[{"kind":"extest"}])"),
               "defects[0].nets: at least two nets are required");
  expect_error(wrap(R"("topology":{"kind":"soc"},"sessions":[)"
                    R"({"kind":"enhanced","name":"a","method":1},)"
                    R"({"kind":"bist","name":"a"}])"),
               "sessions[1].name: duplicate session name \"a\"");
}

TEST(ScenarioParse, SizeCapsAreTypedDiagnostics) {
  // Every value that sizes an allocation is capped at parse time, so an
  // oversized spec fails with a pinned "path: reason" instead of
  // std::bad_alloc once the campaign is built.
  expect_error(
      wrap(R"("topology":{"kind":"soc","n_wires":1025},"sessions":[])"),
      "topology.n_wires: must be <= 1024");
  expect_error(wrap(R"("topology":{"kind":"multibus_soc","n_buses":65},)"
                    R"("sessions":[])"),
               "topology.n_buses: must be <= 64");
  expect_error(wrap(R"("topology":{"kind":"multibus_soc",)"
                    R"("wires_per_bus":1025},"sessions":[])"),
               "topology.wires_per_bus: must be <= 1024");
  expect_error(
      wrap(R"("topology":{"kind":"board","n_nets":4097},"sessions":[])"),
      "topology.n_nets: must be <= 4096");
  // 8 wires x 2^20 samples x 8 B is exactly the 64 MiB bound on one
  // transition's waveforms.
  const std::string transition_bound =
      "topology.bus.samples: bus width x samples x 8 B exceeds the "
      "67108864 B bound on one transition's waveforms";
  expect_error(wrap(R"("topology":{"kind":"soc","n_wires":8,)"
                    R"("bus":{"samples":1048577}},"sessions":[])"),
               transition_bound);
  expect_error(wrap(R"("topology":{"kind":"soc","n_wires":8,)"
                    R"("bus":{"samples":1e11}},"sessions":[])"),
               transition_bound);
  EXPECT_NO_THROW(parse_scenario(
      wrap(R"("topology":{"kind":"soc","n_wires":8,)"
           R"("bus":{"samples":1048576}},"sessions":[{"kind":"bist"}])")));
  expect_error(wrap(R"("topology":{"kind":"soc","n_wires":8},)"
                    R"("defects":[{"kind":"random_crosstalk","count":1025,)"
                    R"("severity":6}],"sessions":[{"kind":"bist"}])"),
               "defects[0].count: must be <= 1024");
  expect_error(wrap(R"("topology":{"kind":"soc"},)"
                    R"("sessions":[{"kind":"enhanced","method":1}],)"
                    R"("sweep":{"samples":5000001,"sd_budget_ps":[1,2]})"),
               "sweep.samples: population (grid points x samples) must be "
               "<= 10000000");
  // One std::thread per shard: a 10^7-die sweep must not ask for ~156k.
  expect_error(wrap(R"("topology":{"kind":"soc"},"sessions":[{"kind":"bist"}],)"
                    R"("campaign":{"shards":257})"),
               "campaign.shards: must be <= 256");
  EXPECT_NO_THROW(parse_scenario(
      wrap(R"("topology":{"kind":"soc"},"sessions":[{"kind":"bist"}],)"
           R"("campaign":{"shards":256})")));
  try {
    check_shards(100000);
    ADD_FAILURE() << "the override gate must reject 100000 shards";
  } catch (const SpecError& e) {
    EXPECT_STREQ(e.what(), "campaign.shards: must be <= 256");
  }
  EXPECT_NO_THROW(check_shards(256));
  EXPECT_NO_THROW(check_shards(0));  // 0 = one per hardware thread
  // Every campaign worker's hub reserves trace_capacity 56-byte records.
  expect_error(wrap(R"("topology":{"kind":"soc"},"sessions":[{"kind":"bist"}],)"
                    R"("obs":{"trace_capacity":1048577})"),
               "obs.trace_capacity: must be <= 1048576");
  expect_error(wrap(R"("topology":{"kind":"soc"},"sessions":[{"kind":"bist"}],)"
                    R"("obs":{"trace_capacity":1000000000000000})"),
               "obs.trace_capacity: must be <= 1048576");
  EXPECT_EQ(parse_scenario(
                wrap(R"("topology":{"kind":"soc"},"sessions":[{"kind":"bist"}],)"
                     R"("obs":{"trace_capacity":1048576})"))
                .obs.trace_capacity,
            std::size_t{1} << 20);
}

TEST(ScenarioParse, JsonErrorsCarryTheJsonPath) {
  try {
    parse_scenario("{]");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.path(), "json");
    EXPECT_NE(std::string(e.what()).find("json: "), std::string::npos);
  }
}

TEST(ScenarioParse, LoadScenarioReportsUnreadableFile) {
  try {
    scenario::load_scenario("/nonexistent/nope.scenario.json");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.path(), "file");
  }
}

// ---- random resolution ----------------------------------------------------

TEST(ScenarioBuild, RandomCrosstalkResolvesDeterministically) {
  const std::string doc = wrap(
      R"("topology":{"kind":"soc","n_wires":16},)"
      R"("defects":[{"kind":"random_crosstalk","count":5,"severity":6}],)"
      R"("sessions":[{"kind":"enhanced","method":1}],)"
      R"("campaign":{"seed":7})");
  const auto a = scenario::resolved_defects(parse_scenario(doc));
  const auto b = scenario::resolved_defects(parse_scenario(doc));
  ASSERT_EQ(a.size(), 5u);
  ASSERT_EQ(b.size(), 5u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, scenario::DefectKind::Crosstalk);
    EXPECT_LT(a[i].wire, 16u);
    EXPECT_EQ(a[i].wire, b[i].wire);
    EXPECT_DOUBLE_EQ(a[i].severity, 6.0);
  }
  // A different seed must shuffle at least one placement (5 draws from 16
  // wires colliding entirely by chance would be a 1-in-a-million fluke —
  // and the assertion is deterministic, not flaky: both sides are fixed).
  ScenarioSpec other = parse_scenario(doc);
  other.campaign.seed = 8;
  const auto c = scenario::resolved_defects(other);
  bool any_different = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_different = any_different || a[i].wire != c[i].wire;
  }
  EXPECT_TRUE(any_different);
}

// ---- round-trip serialization ---------------------------------------------

TEST(ScenarioSerialize, RoundTripIsByteIdenticalFixedPoint) {
  const std::string doc = wrap(
      R"("topology":{"kind":"multibus_soc","n_buses":2,"wires_per_bus":8,)"
      R"("bus":{"vdd":1.2,"c_couple":6.5e-14}},)"
      R"("defects":[{"kind":"coupling","bus":1,"pair":3,"factor":7.5},)"
      R"({"kind":"random_crosstalk","count":2,"severity":6}],)"
      R"("sessions":[{"kind":"multibus","name":"mb","method":2,)"
      R"("defects":[{"kind":"series_resistance","bus":0,"wire":2,)"
      R"("ohms":800}]}],)"
      R"("campaign":{"shards":2,"seed":3,"keep_events":true})");
  const ScenarioSpec spec = parse_scenario(doc);
  const std::string canon = scenario::serialize(spec);
  // Fixed point: parsing the canonical text and re-serializing reproduces
  // it byte for byte (this is what keeps scenarios/ files stable).
  const std::string again = scenario::serialize(parse_scenario(canon));
  EXPECT_EQ(canon, again);
  // And the canonical form still means the same thing.
  const ScenarioSpec back = parse_scenario(canon);
  EXPECT_EQ(back.defects.size(), spec.defects.size());
  EXPECT_EQ(back.sessions.at(0).defects.size(), 1u);
  EXPECT_EQ(back.campaign.seed, 3u);
}

TEST(ScenarioSerialize, TelemetrySectionRoundTripsAndStaysOffTheWire) {
  // No telemetry section parses to the defaults and serializes to no
  // section — this is what keeps the pre-telemetry shipped files
  // byte-exact fixed points.
  const ScenarioSpec plain = parse_scenario(soc_doc());
  EXPECT_TRUE(plain.telemetry.is_default());
  EXPECT_EQ(scenario::serialize(plain).find("telemetry"), std::string::npos);

  const ScenarioSpec spec = parse_scenario(soc_doc(
      R"(,"telemetry":{"enabled":true,"interval_ms":100,)"
      R"("path":"hb.jsonl"})"));
  EXPECT_TRUE(spec.telemetry.enabled);
  EXPECT_EQ(spec.telemetry.interval_ms, 100u);
  EXPECT_EQ(spec.telemetry.path, "hb.jsonl");
  const std::string canon = scenario::serialize(spec);
  EXPECT_NE(canon.find("\"telemetry\""), std::string::npos);
  EXPECT_EQ(canon, scenario::serialize(parse_scenario(canon)));

  expect_error(soc_doc(R"(,"telemetry":{"interval_ms":0})"),
               "telemetry.interval_ms: must be an integer >= 1");
  expect_error(soc_doc(R"(,"telemetry":{"cadence":5})"),
               "telemetry.cadence: unknown key");
}

// ---- campaign lowering ----------------------------------------------------

TEST(ScenarioBuild, LowersEverySessionIntoOneCampaign) {
  const ScenarioSpec spec = parse_scenario(
      wrap(R"("topology":{"kind":"soc","n_wires":4},"sessions":[)"
           R"({"kind":"enhanced","method":1},)"
           R"({"kind":"conventional","method":1},)"
           R"({"kind":"parallel","method":2,"guard":2},)"
           R"({"kind":"bist"}])"));
  scenario::ScenarioCampaign campaign = scenario::build_campaign(spec);
  EXPECT_EQ(campaign.runner().size(), 4u);
  ASSERT_NE(campaign.prototype(), nullptr);
  EXPECT_EQ(campaign.prototype()->params().n_wires, 4u);
  const core::CampaignResult r = campaign.run();
  ASSERT_EQ(r.units.size(), 4u);
  EXPECT_EQ(r.failures, 0u);
  // Default unit names: "<kind>_<index>".
  EXPECT_EQ(r.units[0].name, "enhanced_0");
  EXPECT_EQ(r.units[2].name, "parallel_2");
}

TEST(ScenarioBuild, BoardCampaignHasNoPrototype) {
  const ScenarioSpec spec = parse_scenario(
      wrap(R"("topology":{"kind":"board","n_nets":4},)"
           R"("defects":[{"kind":"open","net":2}],)"
           R"("sessions":[{"kind":"extest","name":"w1"}])"));
  scenario::ScenarioCampaign campaign = scenario::build_campaign(spec);
  EXPECT_EQ(campaign.prototype(), nullptr);
  const core::CampaignResult r = campaign.run();
  ASSERT_EQ(r.units.size(), 1u);
  EXPECT_EQ(r.failures, 0u);
  EXPECT_TRUE(r.units[0].violation);  // the open must be caught
  EXPECT_NE(r.units[0].summary.find("alg=walking_ones"), std::string::npos);
}

TEST(ScenarioBuild, ShardOverrideKeepsReportBytes) {
  const ScenarioSpec spec = parse_scenario(
      wrap(R"("topology":{"kind":"soc","n_wires":4},)"
           R"("defects":[{"kind":"crosstalk","wire":1,"severity":6}],)"
           R"("sessions":[{"kind":"enhanced","method":1},)"
           R"({"kind":"conventional","method":1},{"kind":"bist"}])"));
  scenario::RunOptions one_opt, two_opt;
  one_opt.shards = 1;
  two_opt.shards = 2;
  const auto one = scenario::run_scenario(spec, one_opt);
  const auto two = scenario::run_scenario(spec, two_opt);
  EXPECT_EQ(one.report_text, two.report_text);
  EXPECT_EQ(one.metrics_json, two.metrics_json);
  EXPECT_TRUE(one.events_jsonl.empty());  // keep_events defaults off
}

}  // namespace

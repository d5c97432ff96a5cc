// Sweep campaigns end to end: parse diagnostics (pinned strings), the
// lazy SweepUnitSource's per-index derivation (grid mapping, process
// variation, per-die defects — all pure functions of the unit index),
// the aggregate-transcript threshold, physics ground truth under
// `spec_limits`, and the population-scale determinism contract:
// report/metrics/yield byte-identical across shard counts, across
// checkpoint kill/resume boundaries, and across forked worker
// processes, with and without ground truth.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/checkpoint.hpp"
#include "core/soc.hpp"
#include "scenario/build.hpp"
#include "scenario/parse.hpp"
#include "scenario/run.hpp"
#include "scenario/serialize.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"
#include "si/bus.hpp"
#include "sim/time.hpp"
#include "util/json.hpp"
#include "util/prng.hpp"

namespace jsi {
namespace {

using scenario::parse_scenario;
using scenario::ScenarioSpec;
using scenario::SpecError;
using scenario::SweepUnitSource;

std::string wrap(const std::string& body) {
  return R"({"name":"s","description":"d",)" + body + "}";
}

/// A small but real sweep: 2x2 detector grid, 5 sampled dies per point,
/// process variation and one per-die random defect — 20 units, cheap
/// enough to run repeatedly (4-wire bus), rich enough that any
/// scheduling or rounding leak shows up in the pinned artifacts. With
/// `truth`, every die is also judged against a shipping spec.
std::string small_sweep_doc(bool truth = false) {
  return wrap(
      std::string(
          R"("topology":{"kind":"soc","n_wires":4,"bus":{"samples":512}},)"
          R"("sessions":[{"kind":"enhanced","name":"die","method":1}],)"
          R"("sweep":{"samples":5,"nd_vhthr_frac":[0.3,0.55],)"
          R"("sd_budget_ps":[120,250],)"
          R"("variations":[{"param":"r_driver","sigma":0.1},)"
          R"({"param":"c_couple","sigma":0.05}],)"
          R"("defects":[{"kind":"random_crosstalk","count":1,)"
          R"("severity":1.4}])") +
      (truth ? R"(,"spec_limits":{"max_glitch_frac":0.45,"max_settle_ps":150})"
             : "") +
      R"(},"campaign":{"seed":77})");
}

/// The smallest aggregated sweep: 129 units crosses
/// kSweepTranscriptThreshold = 128, so it runs in 43 auto-sized chunks of
/// 3 units (ceil(129 / 64)).
std::string large_sweep_doc() {
  return wrap(
      R"("topology":{"kind":"soc","n_wires":4,"bus":{"samples":512}},)"
      R"("sessions":[{"kind":"enhanced","method":1}],)"
      R"("sweep":{"samples":129},"campaign":{"seed":1})");
}

/// Member `key` of the "truth" object of a rendered yield.json's
/// population (`g` < 0) or grid point `g`; -1 when any level is missing.
double truth_field(const std::string& yield_json, int g, const char* key) {
  const auto doc = util::json::parse(yield_json);
  const util::json::Value* at = !doc ? nullptr
                                : g < 0 ? doc->find("population")
                                        : &doc->find("grid")->array.at(
                                              static_cast<std::size_t>(g));
  const util::json::Value* t = at != nullptr ? at->find("truth") : nullptr;
  const util::json::Value* v = t != nullptr ? t->find(key) : nullptr;
  return v != nullptr ? v->number : -1.0;
}

void expect_spec_error(const std::string& doc, const std::string& what) {
  try {
    parse_scenario(doc);
    FAIL() << "expected SpecError \"" << what << "\"";
  } catch (const SpecError& e) {
    EXPECT_EQ(std::string(e.what()), what);
  }
}

std::string temp_file(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("jsi_sweep_test_" + tag + "_" +
           std::to_string(static_cast<unsigned>(::getpid()))))
      .string();
}

// ---- parse / serialize ------------------------------------------------------

TEST(SweepParse, RoundTripsThroughSerialize) {
  const ScenarioSpec a = parse_scenario(small_sweep_doc());
  ASSERT_TRUE(a.sweep.has_value());
  EXPECT_EQ(a.sweep->samples, 5u);
  EXPECT_EQ(a.sweep->nd_vhthr_frac.size(), 2u);
  EXPECT_EQ(a.sweep->sd_budget_ps.size(), 2u);
  EXPECT_EQ(a.sweep->variations.size(), 2u);
  EXPECT_EQ(a.sweep->defects.size(), 1u);
  EXPECT_FALSE(a.sweep->spec_limits.has_value());
  const ScenarioSpec b = parse_scenario(scenario::serialize(a));
  EXPECT_EQ(scenario::serialize(a), scenario::serialize(b));

  const ScenarioSpec t = parse_scenario(small_sweep_doc(true));
  ASSERT_TRUE(t.sweep->spec_limits.has_value());
  EXPECT_DOUBLE_EQ(t.sweep->spec_limits->max_glitch_frac, 0.45);
  EXPECT_EQ(t.sweep->spec_limits->max_settle_ps, 150u);
  const std::string text = scenario::serialize(t);
  EXPECT_NE(text.find("\"spec_limits\""), std::string::npos);
  EXPECT_EQ(scenario::serialize(parse_scenario(text)), text);
  // Absent fields take the defaults: 0.45 of the swing, 200 ps.
  const ScenarioSpec d = parse_scenario(
      wrap(R"("topology":{"kind":"soc","n_wires":4},)"
           R"("sessions":[{"kind":"enhanced","method":1}],)"
           R"("sweep":{"spec_limits":{}})"));
  EXPECT_DOUBLE_EQ(d.sweep->spec_limits->max_glitch_frac, 0.45);
  EXPECT_EQ(d.sweep->spec_limits->max_settle_ps, 200u);
}

TEST(SweepParse, PinnedDiagnostics) {
  expect_spec_error(
      wrap(R"("topology":{"kind":"board","n_nets":4},)"
           R"("sessions":[{"kind":"extest"}],"sweep":{"samples":2})"),
      "sweep: requires topology kind \"soc\"");
  expect_spec_error(
      wrap(R"("topology":{"kind":"soc","n_wires":4},)"
           R"("sessions":[{"kind":"enhanced","method":1},)"
           R"({"kind":"bist"}],"sweep":{"samples":2})"),
      "sweep: requires exactly one session template");
  expect_spec_error(
      wrap(R"("topology":{"kind":"soc","n_wires":4},)"
           R"("sessions":[{"kind":"enhanced","method":1}],)"
           R"("sweep":{"nd_vhthr_frac":[0.05]})"),
      "sweep.nd_vhthr_frac[0]: must be a number in (0.1, 1)");
  expect_spec_error(
      wrap(R"("topology":{"kind":"soc","n_wires":4},)"
           R"("sessions":[{"kind":"enhanced","method":1}],)"
           R"("sweep":{"variations":[{"param":"wingspan","sigma":0.1}]})"),
      "sweep.variations[0].param: unknown bus parameter \"wingspan\"");
  expect_spec_error(
      wrap(R"("topology":{"kind":"soc","n_wires":4},)"
           R"("sessions":[{"kind":"enhanced","method":1}],)"
           R"("sweep":{"variations":[{"param":"vdd","sigma":-0.1}]})"),
      "sweep.variations[0].sigma: must be >= 0");
  expect_spec_error(
      wrap(R"("topology":{"kind":"soc","n_wires":4},)"
           R"("sessions":[{"kind":"enhanced","method":1}],)"
           R"("sweep":{"samples":0})"),
      "sweep.samples: must be an integer >= 1");
  const auto limits = [](const std::string& body) {
    return wrap(R"("topology":{"kind":"soc","n_wires":4},)"
                R"("sessions":[{"kind":"enhanced","method":1}],)"
                R"("sweep":{"spec_limits":)" +
                body + "}");
  };
  expect_spec_error(limits("[]"), "sweep.spec_limits: expected an object");
  expect_spec_error(limits(R"({"max_glitch":0.4})"),
                    "sweep.spec_limits.max_glitch: unknown key");
  expect_spec_error(limits(R"({"max_glitch_frac":0})"),
                    "sweep.spec_limits.max_glitch_frac: must be a number in "
                    "(0, 1]");
  expect_spec_error(limits(R"({"max_glitch_frac":1.5})"),
                    "sweep.spec_limits.max_glitch_frac: must be a number in "
                    "(0, 1]");
  expect_spec_error(limits(R"({"max_settle_ps":0})"),
                    "sweep.spec_limits.max_settle_ps: must be an integer >= "
                    "1");
}

// ---- the lazy unit source ---------------------------------------------------

TEST(SweepSource, GridIsRowMajorCrossProduct) {
  const ScenarioSpec spec = parse_scenario(small_sweep_doc());
  const SweepUnitSource src(spec);
  EXPECT_EQ(src.grid_points(), 4u);
  EXPECT_EQ(src.samples(), 5u);
  EXPECT_EQ(src.count(), 20u);
  // Row-major, ND outer: (0.3,120) (0.3,250) (0.55,120) (0.55,250).
  EXPECT_DOUBLE_EQ(*src.grid_point(0).nd_vhthr_frac, 0.3);
  EXPECT_EQ(*src.grid_point(0).sd_budget_ps, 120u);
  EXPECT_DOUBLE_EQ(*src.grid_point(1).nd_vhthr_frac, 0.3);
  EXPECT_EQ(*src.grid_point(1).sd_budget_ps, 250u);
  EXPECT_DOUBLE_EQ(*src.grid_point(2).nd_vhthr_frac, 0.55);
  EXPECT_EQ(*src.grid_point(2).sd_budget_ps, 120u);
  EXPECT_DOUBLE_EQ(*src.grid_point(3).nd_vhthr_frac, 0.55);
  EXPECT_EQ(*src.grid_point(3).sd_budget_ps, 250u);
  EXPECT_EQ(SweepUnitSource::grid_prefix(3), "sweep.grid.g0003");
}

TEST(SweepSource, EmptyAxesGiveOneDefaultPoint) {
  const ScenarioSpec spec = parse_scenario(
      wrap(R"("topology":{"kind":"soc","n_wires":4},)"
           R"("sessions":[{"kind":"enhanced","method":1}],)"
           R"("sweep":{"samples":7})"));
  const SweepUnitSource src(spec);
  EXPECT_EQ(src.grid_points(), 1u);
  EXPECT_EQ(src.count(), 7u);
  EXPECT_FALSE(src.grid_point(0).nd_vhthr_frac.has_value());
  EXPECT_FALSE(src.grid_point(0).sd_budget_ps.has_value());
  // The default point leaves the topology's detector config untouched.
  const core::SocConfig base = scenario::soc_config(spec);
  const core::SocConfig cfg = src.unit_config(0);
  EXPECT_DOUBLE_EQ(cfg.nd.v_hthr_frac, base.nd.v_hthr_frac);
  EXPECT_EQ(cfg.sd.skew_budget, base.sd.skew_budget);
}

TEST(SweepSource, UnitConfigAppliesGridAndVariation) {
  const ScenarioSpec spec = parse_scenario(small_sweep_doc());
  const SweepUnitSource src(spec);
  // Unit 7 sits in grid point 1 (0.3, 250), sample 2.
  const core::SocConfig cfg = src.unit_config(7);
  EXPECT_DOUBLE_EQ(cfg.nd.v_hthr_frac, 0.3);
  EXPECT_DOUBLE_EQ(cfg.nd.v_hmin_frac, 0.3 - 0.10);
  EXPECT_EQ(cfg.sd.skew_budget, 250 * sim::kPs);
  // Variation draws come from Prng(seed).split(7): factors reproduce.
  util::Prng rng = util::Prng(77).split(7);
  const double r_factor = 1.0 + 0.1 * rng.next_normal();
  const double c_factor = 1.0 + 0.05 * rng.next_normal();
  EXPECT_DOUBLE_EQ(cfg.bus.r_driver, 250.0 * r_factor);
  EXPECT_DOUBLE_EQ(cfg.bus.c_couple, 50e-15 * c_factor);
  // Unvaried parameters stay put.
  EXPECT_DOUBLE_EQ(cfg.bus.r_wire, 100.0);
}

TEST(SweepSource, UnitDerivationIsPureAndPerDie) {
  const ScenarioSpec spec = parse_scenario(small_sweep_doc());
  const SweepUnitSource src(spec);
  // Pure: deriving unit 13 twice gives identical config and defects.
  const core::SocConfig a = src.unit_config(13);
  const core::SocConfig b = src.unit_config(13);
  EXPECT_DOUBLE_EQ(a.bus.r_driver, b.bus.r_driver);
  const auto da = src.unit_defects(13);
  const auto db = src.unit_defects(13);
  ASSERT_EQ(da.size(), 1u);
  ASSERT_EQ(db.size(), 1u);
  EXPECT_EQ(da[0].wire, db[0].wire);
  EXPECT_EQ(da[0].kind, scenario::DefectKind::Crosstalk)
      << "random_crosstalk must resolve to a concrete placement";
  // Per-die: across the 20 dies the placements are not all identical.
  bool differs = false;
  for (std::size_t i = 1; i < src.count(); ++i) {
    if (src.unit_defects(i)[0].wire != da[0].wire) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(SweepSource, UnitNamesEncodeGridAndSample) {
  const ScenarioSpec spec = parse_scenario(small_sweep_doc());
  const SweepUnitSource src(spec);
  EXPECT_EQ(src.unit(0).name, "die_g0_s0");
  EXPECT_EQ(src.unit(7).name, "die_g1_s2");
  EXPECT_EQ(src.unit(19).name, "die_g3_s4");
}

// ---- campaign lowering ------------------------------------------------------

TEST(SweepBuild, SmallSweepKeepsPerUnitTranscript) {
  const ScenarioSpec spec = parse_scenario(small_sweep_doc());
  const scenario::ScenarioOutcome out = scenario::run_scenario(spec);
  EXPECT_FALSE(out.result.aggregated);
  ASSERT_EQ(out.result.units.size(), 20u);
  EXPECT_EQ(out.result.units[0].name, "die_g0_s0");
  EXPECT_EQ(out.result.units_run, 20u);
  // Population metrics booked by every unit.
  EXPECT_EQ(out.result.metrics.counter_value("sweep.units"), 20u);
  EXPECT_EQ(out.result.metrics.counter_value("sweep.grid.g0000.units"), 5u);
  EXPECT_FALSE(out.yield_json.empty());
}

TEST(SweepBuild, LargeSweepAggregates) {
  const ScenarioSpec spec = parse_scenario(large_sweep_doc());
  const scenario::ScenarioOutcome out = scenario::run_scenario(spec);
  EXPECT_TRUE(out.result.aggregated);
  EXPECT_TRUE(out.result.units.empty());
  EXPECT_EQ(out.result.units_run, 129u);
  EXPECT_NE(out.report_text.find("129 units (aggregated)"),
            std::string::npos);
}

TEST(SweepBuild, ProfileHeadlineMatchesAggregatedReport) {
  // Aggregate mode folds per-unit outcomes away; the profile headline
  // must still carry the campaign totals the report prints.
  const ScenarioSpec spec = parse_scenario(
      wrap(R"("topology":{"kind":"soc","n_wires":4,"bus":{"samples":512}},)"
           R"("sessions":[{"kind":"enhanced","method":1}],)"
           R"("sweep":{"samples":130,"nd_vhthr_frac":[0.3],)"
           R"("defects":[{"kind":"random_crosstalk","count":1,)"
           R"("severity":6}]},"campaign":{"seed":5})"));
  scenario::RunOptions opt;
  opt.profile = true;
  const scenario::ScenarioOutcome out = scenario::run_scenario(spec, opt);
  const core::CampaignResult& r = out.result;
  ASSERT_TRUE(r.aggregated);
  ASSERT_EQ(r.units_run, 130u);
  EXPECT_GT(r.violations, 0u);

  const std::string units = std::to_string(r.units_run) + " units (aggregated), " +
                            std::to_string(r.violations) + " violations, " +
                            std::to_string(r.failures) + " failures\n";
  const std::string tcks = "tcks: total=" + std::to_string(r.total_tcks) +
                           " generation=" + std::to_string(r.generation_tcks);
  ASSERT_NE(out.report_text.find("campaign: " + units), std::string::npos)
      << out.report_text;
  ASSERT_NE(out.report_text.find(tcks), std::string::npos);

  EXPECT_NE(out.profile_text.find("units: " + std::to_string(r.units_run) +
                                  " (" + std::to_string(r.violations) +
                                  " violations, " +
                                  std::to_string(r.failures) + " failures)\n"),
            std::string::npos)
      << out.profile_text;
  EXPECT_NE(out.profile_text.find(tcks + " ("), std::string::npos)
      << out.profile_text;
  EXPECT_NE(out.profile_text.find(
                "observation=" + std::to_string(r.observation_tcks) + " ("),
            std::string::npos);
}

// ---- the determinism contract ----------------------------------------------

void expect_same_artifacts(const scenario::ScenarioOutcome& a,
                           const scenario::ScenarioOutcome& b,
                           const std::string& tag) {
  EXPECT_EQ(a.report_text, b.report_text) << tag;
  EXPECT_EQ(a.metrics_json, b.metrics_json) << tag;
  EXPECT_EQ(a.yield_json, b.yield_json) << tag;
}

TEST(SweepDeterminism, ShardCountInvariant) {
  for (const bool truth : {false, true}) {
    const ScenarioSpec spec = parse_scenario(small_sweep_doc(truth));
    scenario::RunOptions one;
    one.shards = 1;
    const scenario::ScenarioOutcome base = scenario::run_scenario(spec, one);
    for (const std::size_t shards : {2u, 4u}) {
      scenario::RunOptions opt;
      opt.shards = shards;
      expect_same_artifacts(base, scenario::run_scenario(spec, opt),
                            "truth=" + std::to_string(truth) +
                                " shards=" + std::to_string(shards));
    }
  }
}

TEST(SweepDeterminism, ResumeByteIdenticalAtEveryBoundary) {
  for (const bool truth : {false, true}) {
    const ScenarioSpec spec = parse_scenario(small_sweep_doc(truth));
    scenario::RunOptions whole;
    whole.shards = 1;
    const scenario::ScenarioOutcome base =
        scenario::run_scenario(spec, whole);

    // Per-unit mode => chunk_size 1 => 20 chunks; kill after 1, 7 and 19
    // fresh chunks, at 1 and 4 shards, and resume to completion.
    for (const std::size_t shards : {1u, 4u}) {
      for (const std::size_t kill_after : {1u, 7u, 19u}) {
        const std::string tag = "truth=" + std::to_string(truth) +
                                " shards=" + std::to_string(shards) +
                                " kill=" + std::to_string(kill_after);
        const std::string ckpt = temp_file("resume");
        std::remove(ckpt.c_str());
        scenario::RunOptions step;
        step.shards = shards;
        step.checkpoint_path = ckpt;
        step.max_chunks = kill_after;
        const scenario::ScenarioOutcome partial =
            scenario::run_scenario(spec, step);
        EXPECT_FALSE(partial.result.complete) << tag;
        EXPECT_TRUE(partial.yield_json.empty())
            << "incomplete runs must not render a yield curve: " << tag;

        scenario::RunOptions rest;
        rest.shards = shards;
        rest.checkpoint_path = ckpt;
        rest.resume = true;
        const scenario::ScenarioOutcome resumed =
            scenario::run_scenario(spec, rest);
        EXPECT_TRUE(resumed.result.complete) << tag;
        expect_same_artifacts(base, resumed, tag);
        std::remove(ckpt.c_str());
      }
    }
  }
}

TEST(SweepDeterminism, ResumeRejectsADifferentSpec) {
  const ScenarioSpec spec = parse_scenario(small_sweep_doc());
  const std::string ckpt = temp_file("fingerprint");
  std::remove(ckpt.c_str());
  scenario::RunOptions step;
  step.checkpoint_path = ckpt;
  step.max_chunks = 2;
  (void)scenario::run_scenario(spec, step);

  // Same shape, different seed: a different campaign fingerprint.
  ScenarioSpec reseeded = spec;
  reseeded.campaign.seed = 78;
  scenario::RunOptions rest;
  rest.checkpoint_path = ckpt;
  rest.resume = true;
  EXPECT_THROW(scenario::run_scenario(reseeded, rest), std::runtime_error);
  std::remove(ckpt.c_str());
}

TEST(SweepDeterminism, ForkedWorkersByteIdentical) {
  for (const bool truth : {false, true}) {
    const ScenarioSpec spec = parse_scenario(small_sweep_doc(truth));
    scenario::RunOptions one;
    one.shards = 1;
    const scenario::ScenarioOutcome base = scenario::run_scenario(spec, one);

    for (const std::size_t workers : {2u, 3u}) {
      scenario::RunOptions multi;
      multi.shards = 1;
      multi.workers = workers;
      expect_same_artifacts(base, scenario::run_scenario(spec, multi),
                            "truth=" + std::to_string(truth) +
                                " workers=" + std::to_string(workers));
    }
  }
}

TEST(SweepDeterminism, AggregatedSweepByteIdenticalAcrossShardsWorkersAndResume) {
  // The per-unit sweep above has one unit per chunk; this one runs in
  // multi-unit auto-sized chunks, whose layout must not show in any
  // artifact at any shard count, worker count or kill boundary.
  const ScenarioSpec spec = parse_scenario(large_sweep_doc());
  ASSERT_EQ(scenario::build_campaign(spec).runner().effective_chunk_size(),
            3u);
  scenario::RunOptions one;
  one.shards = 1;
  const scenario::ScenarioOutcome base = scenario::run_scenario(spec, one);
  ASSERT_TRUE(base.result.aggregated);
  ASSERT_EQ(base.result.units_run, 129u);

  for (const std::size_t shards : {3u, 4u}) {
    scenario::RunOptions opt;
    opt.shards = shards;
    expect_same_artifacts(base, scenario::run_scenario(spec, opt),
                          "shards=" + std::to_string(shards));
  }
  {
    scenario::RunOptions multi;
    multi.shards = 1;
    multi.workers = 3;
    expect_same_artifacts(base, scenario::run_scenario(spec, multi),
                          "workers=3");
  }
  for (const std::size_t shards : {1u, 4u}) {
    const std::string tag = "max_chunks=5 + resume, shards=" +
                            std::to_string(shards);
    const std::string ckpt = temp_file("aggregated_resume");
    std::remove(ckpt.c_str());
    scenario::RunOptions step;
    step.shards = shards;
    step.checkpoint_path = ckpt;
    step.max_chunks = 5;
    EXPECT_FALSE(scenario::run_scenario(spec, step).result.complete) << tag;

    scenario::RunOptions rest;
    rest.shards = shards;
    rest.checkpoint_path = ckpt;
    rest.resume = true;
    const scenario::ScenarioOutcome resumed =
        scenario::run_scenario(spec, rest);
    EXPECT_TRUE(resumed.result.complete) << tag;
    expect_same_artifacts(base, resumed, tag);
    std::remove(ckpt.c_str());
  }
}

TEST(SweepDeterminism, ResumeRefusesACheckpointOfTheOld64UnitLayout) {
  // Aggregated sweeps used to run in fixed 64-unit chunks. A checkpoint
  // of that layout (header chunk_size 64, a consistent first record) is
  // a different schedule of the same campaign: refused with the typed
  // error, never folded.
  const ScenarioSpec spec = parse_scenario(large_sweep_doc());
  const std::string ckpt = temp_file("old_layout");
  std::remove(ckpt.c_str());
  {
    scenario::BuildOptions bo;
    bo.checkpoint_path = ckpt;
    bo.max_chunks = 1;
    scenario::ScenarioCampaign old = scenario::build_campaign(spec, bo);
    old.runner().config().chunk_size = 64;
    ASSERT_FALSE(old.run().complete);
  }
  const core::CheckpointData data = core::load_checkpoint(ckpt);
  ASSERT_EQ(data.header.chunk_size, 64u);
  ASSERT_EQ(data.records.size(), 1u);

  scenario::RunOptions rest;
  rest.checkpoint_path = ckpt;
  rest.resume = true;
  EXPECT_THROW(scenario::run_scenario(spec, rest),
               core::CheckpointMismatchError);
  std::remove(ckpt.c_str());
}

// ---- yield rendering --------------------------------------------------------

TEST(SweepYield, CurveCoversTheGrid) {
  const ScenarioSpec spec = parse_scenario(small_sweep_doc());
  const scenario::ScenarioOutcome out = scenario::run_scenario(spec);
  const std::string& y = out.yield_json;
  EXPECT_NE(y.find("\"schema\": \"jsi.yield.v1\""), std::string::npos);
  EXPECT_NE(y.find("\"grid_points\": 4"), std::string::npos);
  EXPECT_NE(y.find("\"units\": 20"), std::string::npos);
  // One grid entry per point, population books present.
  EXPECT_NE(y.find("\"nd_vhthr_frac\": 0.55"), std::string::npos);
  EXPECT_NE(y.find("\"sd_budget_ps\": 250"), std::string::npos);
  EXPECT_NE(y.find("\"population\""), std::string::npos);
  EXPECT_NE(y.find("\"yield\""), std::string::npos);
}

// ---- physics ground truth ---------------------------------------------------

TEST(SweepTruth, CleanPopulationIsAllGood) {
  const ScenarioSpec spec = parse_scenario(
      wrap(R"("topology":{"kind":"soc","n_wires":5},)"
           R"("sessions":[{"kind":"enhanced","method":1}],)"
           R"("sweep":{"samples":4,"nd_vhthr_frac":[0.3,0.55],)"
           R"("spec_limits":{}},"campaign":{"seed":1})"));
  const scenario::ScenarioOutcome out = scenario::run_scenario(spec);
  for (const int g : {-1, 0, 1}) {
    for (const char* zero :
         {"bad", "escapes", "overkill", "escape_rate", "overkill_rate"}) {
      EXPECT_EQ(truth_field(out.yield_json, g, zero), 0) << g << zero;
    }
    EXPECT_EQ(truth_field(out.yield_json, g, "wire_sensitivity"), 1) << g;
  }
  EXPECT_EQ(out.result.metrics.counter_value("sweep.truth.wire_tn"), 8u * 5u);
}

TEST(SweepTruth, SevereCrosstalkIsAllBadAndCaught) {
  // Two severe per-die crosstalk defects at tight thresholds: every die
  // violates the spec, the test catches every die, and nearly every bad
  // wire.
  const ScenarioSpec spec = parse_scenario(
      wrap(R"("topology":{"kind":"soc","n_wires":6},)"
           R"("sessions":[{"kind":"enhanced","method":1}],)"
           R"("sweep":{"samples":12,"nd_vhthr_frac":[0.3],)"
           R"("sd_budget_ps":[120],"defects":[{"kind":"random_crosstalk",)"
           R"("count":2,"severity":8}],"spec_limits":{}},)"
           R"("campaign":{"seed":3})"));
  const std::string y = scenario::run_scenario(spec).yield_json;
  EXPECT_EQ(truth_field(y, -1, "bad"), 12);
  EXPECT_EQ(truth_field(y, -1, "escapes"), 0);
  EXPECT_GT(truth_field(y, -1, "wire_sensitivity"), 0.8);
}

TEST(SweepTruth, LargeSeriesResistanceSkewsThatWire) {
  // One die with a resistive open on wire 3 only: truth is "skewed on
  // wire 3" and nothing else, and the session's SD cell agrees.
  const ScenarioSpec spec = parse_scenario(
      wrap(R"("topology":{"kind":"soc","n_wires":6},)"
           R"("sessions":[{"kind":"enhanced","method":1}],)"
           R"("sweep":{"defects":[{"kind":"series_resistance","wire":3,)"
           R"("ohms":1500}],"spec_limits":{}})"));
  si::CoupledBus bus(core::effective_bus_params(scenario::soc_config(spec)));
  bus.add_series_resistance(3, 1500.0);
  const scenario::DieTruth t = scenario::die_truth(bus, {});
  EXPECT_TRUE(t.skewed[3]);
  EXPECT_EQ(t.skewed.popcount() + t.noisy.popcount(), 1u);
  // A severe crosstalk defect makes its wire noisy.
  bus.inject_crosstalk_defect(1, 8.0);
  EXPECT_TRUE(scenario::die_truth(bus, {}).noisy[1]);

  const obs::Registry& m = scenario::run_scenario(spec).result.metrics;
  EXPECT_EQ(m.counter_value("sweep.truth.bad"), 1u);
  EXPECT_EQ(m.counter_value("sweep.truth.wire_tp"), 1u);
  EXPECT_EQ(m.counter_value("sweep.truth.wire_tn"), 5u);
}

TEST(SweepTruth, LimitsAddOnlyTheTruthBooks) {
  // Without spec_limits: no truth keys or counters. With them: the same
  // report and the same bus.cache_* metrics, because truth lookups run
  // with the bus's sink detached.
  const scenario::ScenarioOutcome plain =
      scenario::run_scenario(parse_scenario(small_sweep_doc()));
  const scenario::ScenarioOutcome truth =
      scenario::run_scenario(parse_scenario(small_sweep_doc(true)));
  EXPECT_EQ(plain.yield_json.find("truth"), std::string::npos);
  for (const auto& [name, c] : plain.result.metrics.counters()) {
    (void)c;
    EXPECT_EQ(name.find(".truth."), std::string::npos) << name;
  }
  EXPECT_NE(truth.yield_json.find("\"truth\""), std::string::npos);
  EXPECT_EQ(plain.report_text, truth.report_text);
  for (const char* name : {"bus.cache_hits", "bus.cache_misses"}) {
    EXPECT_EQ(plain.result.metrics.counter_value(name),
              truth.result.metrics.counter_value(name))
        << name;
  }
}

}  // namespace
}  // namespace jsi

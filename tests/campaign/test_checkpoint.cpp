// Chunked scheduling + checkpoint/resume mechanics at the core layer:
// the lazy UnitSource path, the auto chunk size and chunk-size invariance
// of the merged books, the checkpoint file round-trip (bit-exact doubles
// included), torn-tail tolerance, the loader's check of every record
// against its chunk, and kill-at-a-boundary resume equivalence at 1 and
// 4 shards. The scenario-level sweep suite rides on these guarantees in
// tests/scenario/test_sweep.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "obs/registry.hpp"

namespace jsi {
namespace {

using core::CampaignConfig;
using core::CampaignContext;
using core::CampaignResult;
using core::CampaignRunner;
using core::CampaignUnit;
using core::UnitOutcome;
using core::UnitSource;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "jsi_checkpoint_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Deterministic synthetic population: unit i books counters and a
/// histogram observation derived from i alone, flags a violation every
/// 7th unit and throws on unit 23 — enough structure to make any
/// merge-order or double-rounding bug visible in the pinned artifacts.
class FakeSource : public UnitSource {
 public:
  explicit FakeSource(std::size_t n) : n_(n) {}

  std::size_t count() const override { return n_; }

  CampaignUnit unit(std::size_t index) const override {
    CampaignUnit u;
    u.name = "fake_" + std::to_string(index);
    u.run = [index, this](CampaignContext& ctx) {
      materialized_.fetch_add(1, std::memory_order_relaxed);
      obs::Registry& reg = ctx.hub().registry();
      reg.counter("fake.units").inc();
      reg.counter("fake.work").inc(index + 1);
      // A sum of irrational-ish doubles: bit-exact only if the
      // checkpoint round-trip and merge order are bit-exact.
      reg.histogram("fake.cost").observe(0.1 * static_cast<double>(index) +
                                         0.7);
      if (index == 23) throw std::runtime_error("die 23 is cursed");
      UnitOutcome o;
      o.total_tcks = 100 + index;
      o.generation_tcks = 90 + index;
      o.observation_tcks = 10;
      o.violation = index % 7 == 0;
      o.summary = "synth";
      return o;
    };
    return u;
  }

  std::size_t materialized() const { return materialized_.load(); }
  void reset_materialized() { materialized_.store(0); }

 private:
  std::size_t n_;
  mutable std::atomic<std::size_t> materialized_{0};
};

CampaignResult run_once(const FakeSource& src, CampaignConfig cfg) {
  CampaignRunner runner(cfg);
  runner.set_source(&src);
  return runner.run();
}

// ---- checkpoint file round-trip --------------------------------------------

TEST(Checkpoint, FingerprintIsStable) {
  // FNV-1a 64 over the text; pinned so a checkpoint written today stays
  // resumable by tomorrow's binary.
  EXPECT_EQ(core::fingerprint_text(""), "cbf29ce484222325");
  EXPECT_EQ(core::fingerprint_text("jsi"), "45555f193a50a4b9");
  EXPECT_NE(core::fingerprint_text("a"), core::fingerprint_text("b"));
}

TEST(Checkpoint, RecordRoundTripIsBitExact) {
  core::ChunkRecord rec;
  rec.chunk = 5;
  rec.agg.units = 64;
  rec.agg.violations = 9;
  rec.agg.failures = 1;
  rec.agg.total_tcks = 123456789;
  rec.agg.generation_tcks = 100000000;
  rec.agg.observation_tcks = 23456789;
  rec.registry.counter("c.a").inc(42);
  rec.registry.gauge("g.pi").set(3.141592653589793);
  rec.registry.gauge("g.tiny").set(4.9406564584124654e-324);  // denormal
  rec.registry.histogram("h.x").observe(0.30000000000000004);
  rec.registry.histogram("h.x").observe(1e9);  // overflow bucket
  UnitOutcome fail;  // inside chunk 5 = [320, 384) of the header below
  fail.name = "fake_343";
  fail.index = 343;
  fail.summary = "error: die 343 is cursed \"quoted\"";
  fail.failed = true;
  rec.outcomes.push_back(fail);

  std::ostringstream os;
  core::write_chunk_record(os, rec);
  std::istringstream is(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(is, line));

  const std::string path = temp_path("roundtrip.jsonl");
  core::CheckpointHeader header;
  header.fingerprint = core::fingerprint_text("spec");
  header.units = 640;
  header.chunk_size = 64;
  header.aggregate = true;
  {
    core::CheckpointWriter writer;
    writer.open(path, header, /*resume_existing=*/false);
    writer.append(rec);
  }
  const core::CheckpointData data = core::load_checkpoint(path);
  EXPECT_EQ(data.header.fingerprint, header.fingerprint);
  EXPECT_EQ(data.header.units, 640u);
  EXPECT_EQ(data.header.chunk_size, 64u);
  EXPECT_TRUE(data.header.aggregate);
  ASSERT_EQ(data.records.size(), 1u);
  const core::ChunkRecord& got = data.records[0];
  EXPECT_EQ(got.chunk, 5u);
  EXPECT_EQ(got.agg.units, 64u);
  EXPECT_EQ(got.agg.total_tcks, 123456789u);
  EXPECT_EQ(got.registry.counter_value("c.a"), 42u);
  // Bit-exact doubles, denormals included — the hex-bits encoding.
  EXPECT_EQ(got.registry.gauge_value("g.pi"), 3.141592653589793);
  EXPECT_EQ(got.registry.gauge_value("g.tiny"), 4.9406564584124654e-324);
  const obs::Histogram& h = got.registry.histograms().at("h.x");
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum(), 0.30000000000000004 + 1e9);
  ASSERT_EQ(data.records.size(), 1u);
  ASSERT_FALSE(got.outcomes.empty());
  EXPECT_EQ(got.outcomes[0].index, 343u);
  EXPECT_EQ(got.outcomes[0].summary, "error: die 343 is cursed \"quoted\"");
  EXPECT_TRUE(got.outcomes[0].failed);
  std::remove(path.c_str());
}

TEST(Checkpoint, TornTailLineIsDropped) {
  const std::string path = temp_path("torn.jsonl");
  core::CheckpointHeader header;
  header.fingerprint = "f";
  header.units = 10;
  header.chunk_size = 1;
  header.aggregate = false;
  core::ChunkRecord rec;
  rec.chunk = 0;
  rec.agg.units = 1;
  rec.outcomes.emplace_back();  // per-unit records keep every outcome
  {
    core::CheckpointWriter writer;
    writer.open(path, header, false);
    writer.append(rec);
  }
  // Simulate a writer killed mid-append: a syntactically torn last line.
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os << "{\"chunk\":1,\"agg\":{\"uni";
  }
  const core::CheckpointData data = core::load_checkpoint(path);
  ASSERT_EQ(data.records.size(), 1u) << "the torn record must be dropped";
  EXPECT_EQ(data.records[0].chunk, 0u);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsWrongSchemaAndMissingFile) {
  EXPECT_THROW(core::load_checkpoint(temp_path("nonexistent.jsonl")),
               std::runtime_error);
  const std::string path = temp_path("badschema.jsonl");
  {
    std::ofstream os(path, std::ios::binary);
    os << "{\"schema\":\"something.else\"}\n";
  }
  EXPECT_THROW(core::load_checkpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

// ---- record validation ------------------------------------------------------

/// A 37-unit layout in chunks of 8: chunks 0..3 hold 8 units, chunk 4
/// holds [32, 37).
core::CheckpointHeader layout_header(bool aggregate) {
  core::CheckpointHeader h;
  h.fingerprint = "layout";
  h.units = 37;
  h.chunk_size = 8;
  h.aggregate = aggregate;
  return h;
}

UnitOutcome outcome_at(std::size_t index, bool failed) {
  UnitOutcome o;
  o.name = "fake_" + std::to_string(index);
  o.index = index;
  o.failed = failed;
  return o;
}

/// A consistent aggregate record of chunk 2 = [16, 24): one violation,
/// one failure (unit 19), the failure retained.
core::ChunkRecord aggregate_chunk2() {
  core::ChunkRecord rec;
  rec.chunk = 2;
  rec.agg.units = 8;
  rec.agg.violations = 1;
  rec.agg.failures = 1;
  rec.registry.counter("fake.units").inc(8);
  rec.outcomes.push_back(outcome_at(19, true));
  return rec;
}

std::string validate_path() { return temp_path("validate.jsonl"); }

/// Write `header` plus `rec` as a checkpoint file and load it back.
core::CheckpointData write_and_load(const core::CheckpointHeader& header,
                                    const core::ChunkRecord& rec) {
  {
    core::CheckpointWriter writer;
    writer.open(validate_path(), header, /*resume_existing=*/false);
    writer.append(rec);
  }
  return core::load_checkpoint(validate_path());
}

TEST(CheckpointValidation, ConsistentRecordsLoad) {
  const core::CheckpointData data =
      write_and_load(layout_header(true), aggregate_chunk2());
  ASSERT_EQ(data.records.size(), 1u);
  EXPECT_EQ(data.records[0].outcomes.at(0).index, 19u);
  core::ChunkRecord last;  // the short last chunk, no failures
  last.chunk = 4;
  last.agg.units = 5;
  EXPECT_NO_THROW(write_and_load(layout_header(true), last));
  core::ChunkRecord per_unit;  // one outcome per unit, in index order
  per_unit.chunk = 4;
  per_unit.agg.units = 5;
  per_unit.agg.failures = 1;
  for (std::size_t i = 32; i < 37; ++i) {
    per_unit.outcomes.push_back(outcome_at(i, i == 35));
  }
  EXPECT_NO_THROW(write_and_load(layout_header(false), per_unit));
  std::remove(validate_path().c_str());
}

TEST(CheckpointValidation, RejectsRecordsThatDisagreeWithTheirChunk) {
  // Each corruption alone turns a consistent record into one the fold
  // would add to the books unseen; each must be refused with the typed
  // error, never folded.
  struct Corruption {
    const char* what;
    bool aggregate;
    void (*apply)(core::ChunkRecord&);
  };
  const Corruption corruptions[] = {
      {"chunk id past the last chunk", true,
       [](core::ChunkRecord& r) { r.chunk = 5; }},
      {"chunk id far out of range", true,
       [](core::ChunkRecord& r) { r.chunk = std::size_t{1} << 60; }},
      {"more units than the chunk holds", true,
       [](core::ChunkRecord& r) { r.agg.units = 999; }},
      {"fewer units than the chunk holds", true,
       [](core::ChunkRecord& r) { r.agg.units = 7; }},
      {"a full chunk's units in the short last chunk", true,
       [](core::ChunkRecord& r) {
         r.chunk = 4;
         r.outcomes[0].index = 33;
       }},
      {"more violations than units", true,
       [](core::ChunkRecord& r) { r.agg.violations = 9; }},
      {"more failures than units", true,
       [](core::ChunkRecord& r) { r.agg.failures = 9; }},
      {"outcome before the chunk", true,
       [](core::ChunkRecord& r) { r.outcomes[0].index = 15; }},
      {"outcome past the chunk", true,
       [](core::ChunkRecord& r) { r.outcomes[0].index = 24; }},
      {"outcomes out of order", true,
       [](core::ChunkRecord& r) {
         r.agg.failures = 2;
         r.outcomes.insert(r.outcomes.begin(), outcome_at(20, true));
       }},
      {"one outcome twice", true,
       [](core::ChunkRecord& r) {
         r.agg.failures = 2;
         r.outcomes.push_back(r.outcomes[0]);
       }},
      {"fewer outcomes than failures", true,
       [](core::ChunkRecord& r) { r.agg.failures = 2; }},
      {"more outcomes than failures", true,
       [](core::ChunkRecord& r) { r.agg.failures = 0; }},
      {"a retained outcome that did not fail", true,
       [](core::ChunkRecord& r) { r.outcomes[0].failed = false; }},
      {"per-unit record missing an outcome", false,
       [](core::ChunkRecord& r) {
         // Seven of the chunk's eight outcomes: 16..23 without 19.
         r.outcomes.clear();
         for (std::size_t i = 16; i < 24; ++i) {
           if (i != 19) r.outcomes.push_back(outcome_at(i, false));
         }
       }},
  };
  for (const Corruption& c : corruptions) {
    SCOPED_TRACE(c.what);
    core::ChunkRecord rec = aggregate_chunk2();
    c.apply(rec);
    EXPECT_THROW(write_and_load(layout_header(c.aggregate), rec),
                 core::CheckpointMismatchError);
  }
  std::remove(validate_path().c_str());
}

TEST(CheckpointValidation, ChunkSizeZeroHeaderHoldsNoChunk) {
  core::CheckpointHeader h = layout_header(true);
  h.chunk_size = 0;
  core::ChunkRecord rec;
  rec.agg.units = 1;
  EXPECT_THROW(write_and_load(h, rec), core::CheckpointMismatchError);
  std::remove(validate_path().c_str());
}

// ---- lazy source + chunked scheduling --------------------------------------

TEST(CheckpointRunner, SourceMatchesAddedUnits) {
  // The lazy path must be observationally identical to add()ing the same
  // units: same report text, same merged metrics.
  FakeSource src(27);
  CampaignConfig cfg;
  cfg.shards = 1;
  const CampaignResult from_source = run_once(src, cfg);

  CampaignRunner added(cfg);
  for (std::size_t i = 0; i < 27; ++i) added.add(src.unit(i));
  const CampaignResult from_add = added.run();

  EXPECT_EQ(from_source.to_text(), from_add.to_text());
  EXPECT_EQ(from_source.metrics.to_json(), from_add.metrics.to_json());
  EXPECT_EQ(from_source.failures, 1u);
}

TEST(CheckpointRunner, SourceAndAddAreMutuallyExclusive) {
  FakeSource src(3);
  CampaignRunner runner;
  runner.add(src.unit(0));
  runner.set_source(&src);
  EXPECT_THROW(runner.run(), std::invalid_argument);
}

TEST(CheckpointRunner, AggregateModeFoldsOutcomes) {
  FakeSource src(40);
  CampaignConfig cfg;
  cfg.shards = 1;
  cfg.aggregate_outcomes = true;
  const CampaignResult r = run_once(src, cfg);
  EXPECT_TRUE(r.aggregated);
  EXPECT_TRUE(r.units.empty());
  EXPECT_EQ(r.units_run, 40u);
  // ceil(40/7): violations at 0,7,14,21,28,35.
  EXPECT_EQ(r.violations, 6u);
  ASSERT_EQ(r.failed.size(), 1u);
  EXPECT_EQ(r.failed[0].index, 23u);
  EXPECT_NE(r.failed[0].summary.find("cursed"), std::string::npos);
  EXPECT_NE(r.to_text().find("40 units (aggregated)"), std::string::npos);
  EXPECT_NE(r.to_text().find("[23] fake_23: FAIL"), std::string::npos);
}

TEST(CheckpointRunner, ChunkSizeInvariantBooksInAggregateMode) {
  // The merged counters and histograms must not depend on the chunk
  // width (integer sums and bucket sums are associative); the canonical
  // report must not either.
  FakeSource src(41);
  std::string baseline_text, baseline_json;
  for (const std::size_t chunk : {1u, 4u, 7u, 64u}) {
    CampaignConfig cfg;
    cfg.shards = 3;
    cfg.aggregate_outcomes = true;
    cfg.chunk_size = chunk;
    const CampaignResult r = run_once(src, cfg);
    if (baseline_text.empty()) {
      baseline_text = r.to_text();
      baseline_json = r.metrics.to_json();
      continue;
    }
    EXPECT_EQ(r.to_text(), baseline_text) << "chunk_size " << chunk;
    EXPECT_EQ(r.metrics.to_json(), baseline_json) << "chunk_size " << chunk;
  }
}

TEST(CheckpointRunner, AutoChunkSizeFollowsTheUnitCountAlone) {
  // Aggregate mode: clamp(ceil(units / 64), 1, 64) — at most 64
  // near-equal chunks, and 64-unit chunks past 4,096 units — whatever
  // the shard count. Per-unit mode keeps one unit per chunk, and an
  // explicit chunk_size wins in both modes.
  const std::pair<std::size_t, std::size_t> expected[] = {
      {0, 1},    {1, 1},     {64, 1},     {65, 2},     {129, 3},
      {150, 3},  {384, 6},   {4096, 64},  {4097, 64},  {10000, 64},
  };
  for (const auto& [units, chunk] : expected) {
    SCOPED_TRACE("units=" + std::to_string(units));
    FakeSource src(units);
    for (const std::size_t shards : {1u, 4u}) {
      CampaignConfig cfg;
      cfg.shards = shards;
      cfg.aggregate_outcomes = true;
      CampaignRunner aggregate(cfg);
      aggregate.set_source(&src);
      EXPECT_EQ(aggregate.effective_chunk_size(), chunk);

      cfg.aggregate_outcomes = false;
      CampaignRunner per_unit(cfg);
      per_unit.set_source(&src);
      EXPECT_EQ(per_unit.effective_chunk_size(), 1u);

      per_unit.config().chunk_size = 7;
      aggregate.config().chunk_size = 7;
      EXPECT_EQ(per_unit.effective_chunk_size(), 7u);
      EXPECT_EQ(aggregate.effective_chunk_size(), 7u);
    }
  }
}

TEST(CheckpointRunner, KeepEventsIsIncompatibleWithAggregateAndCheckpoint) {
  FakeSource src(4);
  {
    CampaignConfig cfg;
    cfg.keep_events = true;
    cfg.aggregate_outcomes = true;
    EXPECT_THROW(run_once(src, cfg), std::invalid_argument);
  }
  {
    CampaignConfig cfg;
    cfg.keep_events = true;
    cfg.checkpoint_path = temp_path("never_written.jsonl");
    EXPECT_THROW(run_once(src, cfg), std::invalid_argument);
  }
  {
    CampaignConfig cfg;
    cfg.resume = true;  // resume without a checkpoint path
    EXPECT_THROW(run_once(src, cfg), std::invalid_argument);
  }
}

TEST(CheckpointRunner, RangeMustBeChunkAligned) {
  FakeSource src(40);
  CampaignConfig cfg;
  cfg.aggregate_outcomes = true;
  cfg.chunk_size = 8;
  cfg.range_begin = 4;  // mid-chunk
  cfg.range_end = 16;
  EXPECT_THROW(run_once(src, cfg), std::invalid_argument);
}

TEST(CheckpointRunner, RangeRestrictedRunIsIncomplete) {
  FakeSource src(40);
  CampaignConfig cfg;
  cfg.shards = 1;
  cfg.aggregate_outcomes = true;
  cfg.chunk_size = 8;
  cfg.range_begin = 8;
  cfg.range_end = 24;
  const CampaignResult r = run_once(src, cfg);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.units_run, 16u);
}

// ---- checkpoint + resume ----------------------------------------------------

/// Run to completion with max_chunks-sized steps, then compare against
/// the uninterrupted run — the kill-at-a-boundary simulation.
void expect_resume_identical(std::size_t units, std::size_t chunk,
                             std::size_t step, std::size_t shards,
                             bool aggregate, const std::string& tag) {
  FakeSource src(units);
  CampaignConfig base;
  base.shards = shards;
  base.aggregate_outcomes = aggregate;
  base.chunk_size = chunk;

  const CampaignResult whole = run_once(src, base);

  const std::string path = temp_path("resume_" + tag + ".jsonl");
  std::remove(path.c_str());
  CampaignConfig stepped = base;
  stepped.checkpoint_path = path;
  stepped.fingerprint = "test-spec";
  stepped.max_chunks = step;
  CampaignResult r;
  // Each iteration is one "process lifetime": at most `step` fresh
  // chunks, then die; the next lifetime resumes from the file.
  for (int lifetime = 0; lifetime < 64; ++lifetime) {
    r = run_once(src, stepped);
    if (r.complete) break;
    stepped.resume = true;
  }
  ASSERT_TRUE(r.complete) << tag;
  EXPECT_EQ(r.to_text(), whole.to_text()) << tag;
  EXPECT_EQ(r.metrics.to_json(), whole.metrics.to_json()) << tag;
  std::remove(path.c_str());
}

TEST(CheckpointRunner, ResumeByteIdenticalAcrossBoundaries) {
  // Several kill boundaries x both outcome modes, 1 and 4 shards.
  expect_resume_identical(40, 8, 1, 1, true, "agg_s1_k1");
  expect_resume_identical(40, 8, 2, 1, true, "agg_s1_k2");
  expect_resume_identical(40, 8, 3, 4, true, "agg_s4_k3");
  expect_resume_identical(40, 8, 1, 4, true, "agg_s4_k1");
  expect_resume_identical(17, 1, 5, 1, false, "unit_s1_k5");
  expect_resume_identical(17, 1, 4, 4, false, "unit_s4_k4");
}

TEST(CheckpointRunner, ResumeSkipsCompletedChunks) {
  FakeSource src(40);
  const std::string path = temp_path("skip.jsonl");
  std::remove(path.c_str());
  CampaignConfig cfg;
  cfg.shards = 1;
  cfg.aggregate_outcomes = true;
  cfg.chunk_size = 8;
  cfg.checkpoint_path = path;
  cfg.max_chunks = 3;
  const CampaignResult first = run_once(src, cfg);
  EXPECT_FALSE(first.complete);
  EXPECT_EQ(src.materialized(), 24u);

  src.reset_materialized();
  cfg.resume = true;
  cfg.max_chunks = 0;
  const CampaignResult second = run_once(src, cfg);
  EXPECT_TRUE(second.complete);
  EXPECT_EQ(src.materialized(), 16u)
      << "resume must only materialize the unfinished chunks";
  EXPECT_EQ(second.units_run, 40u);

  // A third run resumes a complete checkpoint: a pure merge pass.
  src.reset_materialized();
  const CampaignResult third = run_once(src, cfg);
  EXPECT_TRUE(third.complete);
  EXPECT_EQ(src.materialized(), 0u);
  EXPECT_EQ(third.to_text(), second.to_text());
  EXPECT_EQ(third.metrics.to_json(), second.metrics.to_json());
  std::remove(path.c_str());
}

TEST(CheckpointRunner, ResumeRejectsMismatchedCampaign) {
  FakeSource src(40);
  const std::string path = temp_path("mismatch.jsonl");
  std::remove(path.c_str());
  CampaignConfig cfg;
  cfg.shards = 1;
  cfg.aggregate_outcomes = true;
  cfg.chunk_size = 8;
  cfg.checkpoint_path = path;
  cfg.fingerprint = "spec-A";
  cfg.max_chunks = 1;
  (void)run_once(src, cfg);

  // The rejection is typed: callers (the CLI, the serve daemon) can
  // distinguish "wrong campaign for this checkpoint" from generic
  // runtime failures. CheckpointMismatchError derives std::runtime_error,
  // so the broad catch sites keep working too.
  cfg.resume = true;
  cfg.fingerprint = "spec-B";
  EXPECT_THROW(run_once(src, cfg), core::CheckpointMismatchError);

  cfg.fingerprint = "spec-A";
  cfg.chunk_size = 4;  // different chunk layout
  EXPECT_THROW(run_once(src, cfg), core::CheckpointMismatchError);
  std::remove(path.c_str());
}

TEST(CheckpointRunner, ResumeRejectsARecordThatBooksTooManyUnits) {
  // An edited record used to fold as is: 999 units booked for an 8-unit
  // chunk printed a 1031-unit report for a 40-unit campaign.
  FakeSource src(40);
  const std::string path = temp_path("edited.jsonl");
  std::remove(path.c_str());
  CampaignConfig cfg;
  cfg.shards = 1;
  cfg.aggregate_outcomes = true;
  cfg.chunk_size = 8;
  cfg.checkpoint_path = path;
  cfg.fingerprint = "spec-A";
  cfg.max_chunks = 1;
  (void)run_once(src, cfg);

  std::string text = slurp(path);
  const std::string units = "\"agg\":{\"units\":8,";
  const std::size_t at = text.find(units);
  ASSERT_NE(at, std::string::npos) << text;
  text.replace(at, units.size(), "\"agg\":{\"units\":999,");
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
  }
  cfg.resume = true;
  cfg.max_chunks = 0;
  EXPECT_THROW(run_once(src, cfg), core::CheckpointMismatchError);
  std::remove(path.c_str());
}

TEST(CheckpointRunner, ResumeRejectsPreStoreSchemaWithTypedError) {
  // v1 chunk records book bus lookups as memo + MA-table counters, v2
  // ones as lookups of a store keyed by wire neighbourhood; folding either
  // into a v3 run would mix two counter layouts in one registry. A schema
  // that is no older version of ours stays a plain parse error.
  FakeSource src(40);
  const std::string path = temp_path("schema_old.jsonl");
  const std::string v3 = "\"schema\":\"jsi.checkpoint.v3\"";
  const std::pair<const char*, bool> inputs[] = {
      {"jsi.checkpoint.v1", true},
      {"jsi.checkpoint.v2", true},
      {"jsi.checkpoint.v4", false},
      {"jsi.checkpoint.v02", false},
  };
  for (const auto& [schema, older] : inputs) {
    SCOPED_TRACE(schema);
    std::remove(path.c_str());
    CampaignConfig cfg;
    cfg.shards = 1;
    cfg.aggregate_outcomes = true;
    cfg.chunk_size = 8;
    cfg.checkpoint_path = path;
    cfg.fingerprint = "spec-A";
    cfg.max_chunks = 2;
    (void)run_once(src, cfg);

    std::string text;
    {
      std::ifstream is(path, std::ios::binary);
      std::ostringstream ss;
      ss << is.rdbuf();
      text = ss.str();
    }
    const std::size_t at = text.find(v3);
    ASSERT_EQ(at, text.find('"')) << "the header leads with the v3 schema";
    text.replace(at, v3.size(), std::string("\"schema\":\"") + schema + '"');
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os << text;
    }

    cfg.resume = true;
    cfg.max_chunks = 0;
    try {
      (void)run_once(src, cfg);
      ADD_FAILURE() << "a foreign checkpoint must not resume";
    } catch (const core::CheckpointMismatchError& e) {
      EXPECT_TRUE(older) << e.what();
      const std::string what = e.what();
      EXPECT_NE(what.find(schema), std::string::npos) << what;
      EXPECT_NE(what.find("jsi.checkpoint.v3"), std::string::npos) << what;
    } catch (const std::runtime_error& e) {
      EXPECT_FALSE(older) << e.what();
      EXPECT_NE(std::string(e.what()).find("unknown schema"),
                std::string::npos)
          << e.what();
    }
    if (older) {
      EXPECT_THROW(core::load_checkpoint(path),
                   core::CheckpointMismatchError);
    }
  }
  std::remove(path.c_str());
}

TEST(CheckpointRunner, CheckpointGrowsByOneLinePerChunk) {
  FakeSource src(32);
  const std::string path = temp_path("growth.jsonl");
  std::remove(path.c_str());
  CampaignConfig cfg;
  cfg.shards = 1;
  cfg.aggregate_outcomes = true;
  cfg.chunk_size = 8;
  cfg.checkpoint_path = path;
  cfg.max_chunks = 2;
  (void)run_once(src, cfg);
  {
    const std::string text = slurp(path);
    std::size_t lines = 0;
    for (const char c : text) lines += c == '\n';
    EXPECT_EQ(lines, 3u) << "header + 2 chunk records";
  }
  cfg.resume = true;
  cfg.max_chunks = 0;
  (void)run_once(src, cfg);
  {
    const std::string text = slurp(path);
    std::size_t lines = 0;
    for (const char c : text) lines += c == '\n';
    EXPECT_EQ(lines, 5u) << "header + 4 chunk records after completion";
  }
  std::remove(path.c_str());
}

// ---- part merging (the multi-process assembly step) ------------------------

/// One serialized chunk record line for synthetic part files.
std::string record_line(std::size_t chunk) {
  core::ChunkRecord rec;
  rec.chunk = chunk;
  rec.agg.units = 1;
  std::ostringstream os;
  core::write_chunk_record(os, rec);
  os << '\n';
  return os.str();
}

core::CheckpointHeader part_header() {
  core::CheckpointHeader h;
  h.fingerprint = "merge-test";
  h.units = 6;
  h.chunk_size = 1;
  h.aggregate = true;
  return h;
}

/// Write a part file: a header plus `lines`, verbatim.
void write_part(const std::string& path, const std::string& lines) {
  core::CheckpointWriter writer;
  writer.open(path, part_header(), /*resume_existing=*/false);
  std::ofstream os(path, std::ios::binary | std::ios::app);
  os << lines;
}

TEST(CheckpointMerge, TornPartTailIsDroppedNotReterminated) {
  // The regression this pins: the old concatenation re-appended '\n' to
  // a part's unterminated final line, turning the torn fragment into a
  // "line" the loader chokes on — and load_checkpoint stops at the first
  // unparseable line, silently discarding every later part's records. A
  // torn tail must contribute nothing and cost nothing downstream.
  const std::string a = temp_path("merge_a.part");
  const std::string b = temp_path("merge_b.part");
  const std::string dst = temp_path("merge.jsonl");
  // Part A: one durable record, then a worker killed mid-append.
  write_part(a, record_line(0) + "{\"chunk\":1,\"agg\":{\"uni");
  // Part B: fully durable.
  write_part(b, record_line(2) + record_line(3));

  core::merge_checkpoint_parts(dst, part_header(), {a, b});
  const core::CheckpointData data = core::load_checkpoint(dst);
  ASSERT_EQ(data.records.size(), 3u)
      << "part B's records must survive part A's torn tail";
  EXPECT_EQ(data.records[0].chunk, 0u);
  EXPECT_EQ(data.records[1].chunk, 2u);
  EXPECT_EQ(data.records[2].chunk, 3u);

  std::remove(a.c_str());
  std::remove(b.c_str());
  std::remove(dst.c_str());
}

TEST(CheckpointMerge, PartWithTornHeaderContributesNothing) {
  const std::string a = temp_path("merge_hdr_a.part");
  const std::string b = temp_path("merge_hdr_b.part");
  const std::string dst = temp_path("merge_hdr.jsonl");
  {
    // Killed before the header's newline made it out.
    std::ofstream os(a, std::ios::binary);
    os << "{\"schema\":\"jsi.checkpo";
  }
  write_part(b, record_line(1));

  core::merge_checkpoint_parts(dst, part_header(), {a, b});
  const core::CheckpointData data = core::load_checkpoint(dst);
  ASSERT_EQ(data.records.size(), 1u);
  EXPECT_EQ(data.records[0].chunk, 1u);

  std::remove(a.c_str());
  std::remove(b.c_str());
  std::remove(dst.c_str());
}

TEST(Checkpoint, ResumeTruncatesTornTailBeforeAppending) {
  // The companion glue bug: appending fresh records directly after an
  // unterminated torn fragment produces one unparseable glued line —
  // losing both the fragment (expected) and the fresh record (not
  // acceptable). open(resume) must cut back to the durable prefix first.
  const std::string path = temp_path("glue.jsonl");
  {
    core::CheckpointWriter writer;
    writer.open(path, part_header(), false);
  }
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os << record_line(0) << "{\"chunk\":1,\"agg\":{\"uni";
  }
  {
    core::CheckpointWriter writer;
    writer.open(path, part_header(), /*resume_existing=*/true);
    core::ChunkRecord rec;
    rec.chunk = 2;
    rec.agg.units = 1;
    writer.append(rec);
  }
  const core::CheckpointData data = core::load_checkpoint(path);
  ASSERT_EQ(data.records.size(), 2u)
      << "the record appended after resume must not glue onto the torn tail";
  EXPECT_EQ(data.records[0].chunk, 0u);
  EXPECT_EQ(data.records[1].chunk, 2u);
  std::remove(path.c_str());
}

// ---- cooperative cancel ----------------------------------------------------

TEST(CheckpointRunner, PreSetCancelFlagStopsBeforeAnyChunk) {
  FakeSource src(40);
  std::atomic<bool> cancel{true};
  CampaignConfig cfg;
  cfg.shards = 4;
  cfg.aggregate_outcomes = true;
  cfg.chunk_size = 8;
  cfg.cancel = &cancel;
  const CampaignResult r = run_once(src, cfg);
  EXPECT_TRUE(r.cancelled);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.units_run, 0u);
  EXPECT_EQ(src.materialized(), 0u);
}

TEST(CheckpointRunner, CancelMidRunStopsClaimingChunks) {
  // A unit raises the flag itself: everything in already-claimed chunks
  // still folds (the runner only polls between chunk claims — cancel is
  // cooperative, not preemptive), but no worker claims another chunk.
  FakeSource src(400);
  std::atomic<bool> cancel{false};
  CampaignConfig cfg;
  cfg.shards = 1;  // deterministic: one worker, chunks claimed in order
  cfg.aggregate_outcomes = true;
  cfg.chunk_size = 8;
  cfg.cancel = &cancel;
  CampaignRunner runner(cfg);
  // Wrap the source: unit 19 flips the flag.
  class Wrap : public UnitSource {
   public:
    Wrap(const FakeSource& inner, std::atomic<bool>& flag)
        : inner_(inner), flag_(flag) {}
    std::size_t count() const override { return inner_.count(); }
    CampaignUnit unit(std::size_t index) const override {
      CampaignUnit u = inner_.unit(index);
      if (index == 19) {
        auto run = std::move(u.run);
        u.run = [run = std::move(run), this](CampaignContext& ctx) {
          flag_.store(true, std::memory_order_relaxed);
          return run(ctx);
        };
      }
      return u;
    }

   private:
    const FakeSource& inner_;
    std::atomic<bool>& flag_;
  } wrapped(src, cancel);
  runner.set_source(&wrapped);
  const CampaignResult r = runner.run();
  EXPECT_TRUE(r.cancelled);
  EXPECT_FALSE(r.complete);
  // Unit 19 lives in chunk 2 (units 16..23): chunks 0..2 were claimed
  // before the flag rose; chunk 3 onward must never start.
  EXPECT_EQ(r.units_run, 24u);
}

TEST(CheckpointRunner, CancelledRunKeepsItsCheckpointResumable) {
  // Cancel is just a premature stop: whatever was recorded must resume
  // to a byte-identical completion, exactly like a kill.
  FakeSource src(40);
  const std::string path = temp_path("cancel_resume.jsonl");
  std::remove(path.c_str());

  CampaignConfig base;
  base.shards = 1;
  base.aggregate_outcomes = true;
  base.chunk_size = 8;
  const CampaignResult whole = run_once(src, base);

  std::atomic<bool> cancel{false};
  CampaignConfig cfg = base;
  cfg.checkpoint_path = path;
  cfg.fingerprint = "cancel-test";
  cfg.max_chunks = 2;  // stop early the checkpointed way...
  (void)run_once(src, cfg);
  cancel.store(true);
  cfg.max_chunks = 0;
  cfg.resume = true;
  cfg.cancel = &cancel;  // ...then a resume that is cancelled immediately
  const CampaignResult stalled = run_once(src, cfg);
  EXPECT_TRUE(stalled.cancelled);
  EXPECT_FALSE(stalled.complete);

  cancel.store(false);
  const CampaignResult finished = run_once(src, cfg);
  EXPECT_TRUE(finished.complete);
  EXPECT_FALSE(finished.cancelled);
  EXPECT_EQ(finished.to_text(), whole.to_text());
  EXPECT_EQ(finished.metrics.to_json(), whole.metrics.to_json());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace jsi

#include "obs/registry.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "util/json.hpp"

namespace jsi::obs {
namespace {

TEST(Registry, CountersCreateOnFirstUseAndAccumulate) {
  Registry reg;
  EXPECT_TRUE(reg.empty());
  reg.counter("a").inc();
  reg.counter("a").inc(4);
  EXPECT_EQ(reg.counter_value("a"), 5u);
  EXPECT_EQ(reg.counter_value("missing"), 0u);
  EXPECT_FALSE(reg.empty());
}

TEST(Registry, ReferencesStayStableAcrossInsertions) {
  Registry reg;
  Counter& a = reg.counter("a");
  // Insert names sorting on both sides of "a" to force tree rebalancing.
  for (char c = 'b'; c <= 'z'; ++c) reg.counter(std::string(1, c));
  for (char c = 'A'; c <= 'Z'; ++c) reg.counter(std::string(1, c));
  a.inc(7);
  EXPECT_EQ(reg.counter_value("a"), 7u);
}

TEST(Registry, GaugeHoldsLastWrite) {
  Registry reg;
  reg.gauge("rate").set(0.25);
  reg.gauge("rate").set(0.75);
  EXPECT_DOUBLE_EQ(reg.gauge_value("rate"), 0.75);
}

TEST(Histogram, BucketsByUpperBoundWithOverflow) {
  Histogram h({10, 100});
  h.observe(1);
  h.observe(10);   // <= 10: first bucket
  h.observe(11);   // <= 100: second bucket
  h.observe(1e9);  // overflow
  ASSERT_EQ(h.counts().size(), 3u);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1 + 10 + 11 + 1e9);
}

TEST(Histogram, RejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({5, 1}), std::invalid_argument);
}

TEST(Histogram, MeanIsSumOverCountAndZeroWhenEmpty) {
  Histogram h({10, 100});
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  h.observe(10);
  h.observe(30);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(Histogram, QuantileInterpolatesWithinTheTargetBucket) {
  Histogram h({10, 20, 30});
  // 10 observations in (10, 20]: ranks 1..10 spread linearly over the
  // bucket, so p50 sits mid-bucket and p100 at the upper bound.
  for (int i = 0; i < 10; ++i) h.observe(15);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 11.0);   // rank clamps to 1
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 15.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));  // q clamps
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

TEST(Histogram, QuantileSpansBucketsAndClampsOverflow) {
  Histogram h({10, 100});
  for (int i = 0; i < 8; ++i) h.observe(5);    // (0, 10]
  for (int i = 0; i < 1; ++i) h.observe(50);   // (10, 100]
  h.observe(1e9);                              // overflow
  EXPECT_LE(h.quantile(0.5), 10.0);
  EXPECT_GT(h.quantile(0.85), 10.0);
  EXPECT_LE(h.quantile(0.85), 100.0);
  // The overflow bucket has no upper edge; the highest finite bound is
  // the honest answer.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(Histogram({10}).quantile(0.5), 0.0);  // empty
}

TEST(Registry, ResetZeroesValuesButKeepsNames) {
  Registry reg;
  reg.counter("c").inc(3);
  reg.gauge("g").set(1.5);
  reg.histogram("h").observe(42);
  reg.reset();
  EXPECT_FALSE(reg.empty());
  EXPECT_EQ(reg.counter_value("c"), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge_value("g"), 0.0);
  EXPECT_EQ(reg.histograms().at("h").count(), 0u);
}

TEST(Registry, TextDumpIsNameOrderedAndDeterministic) {
  Registry reg;
  reg.counter("z.last").inc(1);
  reg.counter("a.first").inc(2);
  std::ostringstream s1, s2;
  reg.write_text(s1);
  reg.write_text(s2);
  EXPECT_EQ(s1.str(), "a.first 2\nz.last 1\n");
  EXPECT_EQ(s1.str(), s2.str());
}

TEST(Registry, JsonDumpParsesAndRoundTripsValues) {
  Registry reg;
  reg.counter("tck.total").inc(123);
  reg.gauge("hit.rate").set(0.5);
  reg.histogram("lat", {1, 10}).observe(3);

  std::string err;
  const auto doc = util::json::parse(reg.to_json(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  ASSERT_TRUE(doc->is_object());

  const util::json::Value* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  const util::json::Value* total = counters->find("tck.total");
  ASSERT_NE(total, nullptr);
  EXPECT_DOUBLE_EQ(total->number, 123.0);

  const util::json::Value* hist = doc->find("histograms");
  ASSERT_NE(hist, nullptr);
  const util::json::Value* lat = hist->find("lat");
  ASSERT_NE(lat, nullptr);
  const util::json::Value* counts = lat->find("counts");
  ASSERT_NE(counts, nullptr);
  ASSERT_EQ(counts->array.size(), 3u);
  EXPECT_DOUBLE_EQ(counts->array[1].number, 1.0);  // 3 lands in (1, 10]
}

TEST(MetricsDump, WritesParseableBenchFile) {
  global_registry().counter("dump.test").inc(9);
  // One file per process: concurrent runs of this binary must not read
  // or remove each other's dump.
  const std::string path = testing::TempDir() + "BENCH_registry_unittest_" +
                           std::to_string(::getpid()) + ".json";
  const std::string written = jsi_metrics_dump("registry_unittest", path);
  ASSERT_EQ(written, path);

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string err;
  const auto doc = util::json::parse(buf.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const util::json::Value* bench = doc->find("benchmark");
  ASSERT_NE(bench, nullptr);
  EXPECT_EQ(bench->str, "registry_unittest");
  const util::json::Value* metrics = doc->find("metrics");
  ASSERT_NE(metrics, nullptr);
  const util::json::Value* counters = metrics->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("dump.test"), nullptr);
  EXPECT_DOUBLE_EQ(counters->find("dump.test")->number, 9.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace jsi::obs

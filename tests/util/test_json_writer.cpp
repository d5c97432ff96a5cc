// Golden tests for the util::json writer: byte-exact output for the
// compact and pretty forms, escaping shared with every other emitter in
// the repo, deterministic number rendering, and parse(write(v)) == v
// round-trips through the strict in-tree parser.

#include <gtest/gtest.h>

#include <sstream>

#include "util/json.hpp"

namespace json = jsi::util::json;

namespace {

json::Value sample_doc() {
  json::Value v = json::Value::make_object();
  v.add("name", json::Value::make_string("demo"));
  v.add("count", json::Value::make_number(3));
  v.add("ratio", json::Value::make_number(0.25));
  v.add("ok", json::Value::make_bool(true));
  v.add("missing", json::Value::make_null());
  json::Value arr = json::Value::make_array();
  arr.push(json::Value::make_number(1));
  arr.push(json::Value::make_number(2));
  json::Value inner = json::Value::make_object();
  inner.add("deep", json::Value::make_bool(false));
  arr.push(std::move(inner));
  v.add("items", std::move(arr));
  return v;
}

TEST(JsonWriter, CompactGolden) {
  EXPECT_EQ(json::to_text(sample_doc()),
            "{\"name\":\"demo\",\"count\":3,\"ratio\":0.25,\"ok\":true,"
            "\"missing\":null,\"items\":[1,2,{\"deep\":false}]}");
}

TEST(JsonWriter, PrettyGolden) {
  EXPECT_EQ(json::to_text(sample_doc(), 2),
            "{\n"
            "  \"name\": \"demo\",\n"
            "  \"count\": 3,\n"
            "  \"ratio\": 0.25,\n"
            "  \"ok\": true,\n"
            "  \"missing\": null,\n"
            "  \"items\": [\n"
            "    1,\n"
            "    2,\n"
            "    {\n"
            "      \"deep\": false\n"
            "    }\n"
            "  ]\n"
            "}\n");
}

TEST(JsonWriter, EmptyContainers) {
  json::Value v = json::Value::make_object();
  v.add("a", json::Value::make_array());
  v.add("o", json::Value::make_object());
  EXPECT_EQ(json::to_text(v), "{\"a\":[],\"o\":{}}");
  EXPECT_EQ(json::to_text(v, 2), "{\n  \"a\": [],\n  \"o\": {}\n}\n");
  EXPECT_EQ(json::to_text(json::Value::make_array()), "[]");
  EXPECT_EQ(json::to_text(json::Value::make_null()), "null");
}

TEST(JsonWriter, StringEscaping) {
  json::Value v = json::Value::make_string("a\"b\\c\n\t\x01z");
  EXPECT_EQ(json::to_text(v), "\"a\\\"b\\\\c\\n\\t\\u0001z\"");
}

TEST(JsonWriter, NumberRendering) {
  // Integral doubles print without a fraction — counters and config
  // integers round-trip byte-identically.
  EXPECT_EQ(json::to_text(json::Value::make_number(0)), "0");
  EXPECT_EQ(json::to_text(json::Value::make_number(-7)), "-7");
  EXPECT_EQ(json::to_text(json::Value::make_number(65536)), "65536");
  // Non-integral values get 12 significant digits.
  EXPECT_EQ(json::to_text(json::Value::make_number(1.8)), "1.8");
  EXPECT_EQ(json::to_text(json::Value::make_number(5e-14)), "5e-14");
}

TEST(JsonWriter, WriteNumberMatchesToText) {
  std::ostringstream os;
  json::write_number(os, 2e-13);
  EXPECT_EQ(os.str(), json::to_text(json::Value::make_number(2e-13)));
}

void expect_equal(const json::Value& a, const json::Value& b) {
  // Comparing via the deterministic writer: equal rendering == equal value.
  EXPECT_EQ(json::to_text(a), json::to_text(b));
}

TEST(JsonWriter, ParserRoundTrip) {
  const json::Value doc = sample_doc();
  for (int indent : {0, 2, 4}) {
    const std::string text = json::to_text(doc, indent);
    std::string err;
    const auto parsed = json::parse(text, &err);
    ASSERT_TRUE(parsed.has_value()) << err << " for: " << text;
    expect_equal(*parsed, doc);
  }
}

}  // namespace

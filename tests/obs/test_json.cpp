#include "util/json.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace jsi::util::json {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_EQ(parse("null")->type, Value::Type::Null);
  EXPECT_TRUE(parse("true")->boolean);
  EXPECT_FALSE(parse("false")->boolean);
  EXPECT_DOUBLE_EQ(parse("-12.5e2")->number, -1250.0);
  EXPECT_EQ(parse("\"hi\"")->str, "hi");
}

TEST(Json, ParsesNestedDocument) {
  const auto doc = parse(
      R"({"a":[1,2,{"b":"x"}],"c":{"d":null},"e":-7})");
  ASSERT_TRUE(doc.has_value());
  const Value* a = doc->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[1].number, 2.0);
  EXPECT_EQ(a->array[2].find("b")->str, "x");
  EXPECT_EQ(doc->find("c")->find("d")->type, Value::Type::Null);
  EXPECT_DOUBLE_EQ(doc->find("e")->number, -7.0);
}

TEST(Json, ObjectKeepsInsertionOrder) {
  const auto doc = parse(R"({"z":1,"a":2})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->object.size(), 2u);
  EXPECT_EQ(doc->object[0].first, "z");
  EXPECT_EQ(doc->object[1].first, "a");
}

TEST(Json, DecodesEscapes) {
  const auto doc = parse(R"("line\n\"quoted\"\t\\")");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->str, "line\n\"quoted\"\t\\");
}

TEST(Json, DecodesBmpUnicodeEscapes) {
  // U+00E9 and U+20AC decode to 2- and 3-byte UTF-8.
  EXPECT_EQ(parse(R"("caf\u00e9")")->str, "caf\xc3\xa9");
  EXPECT_EQ(parse(R"("\u20ac5")")->str, "\xe2\x82\xac" "5");
  // Hex digits are case-insensitive.
  EXPECT_EQ(parse(R"("\u00E9")")->str, "\xc3\xa9");
  // \u0000 is a legal escape producing a NUL byte.
  const auto nul = parse(R"("a\u0000b")");
  ASSERT_TRUE(nul.has_value());
  EXPECT_EQ(nul->str, std::string("a\0b", 3));
}

TEST(Json, DecodesSurrogatePairs) {
  // \ud83d\ude00 combines to U+1F600 -> 4-byte UTF-8 f0 9f 98 80.
  EXPECT_EQ(parse(R"("\ud83d\ude00")")->str, "\xf0\x9f\x98\x80");
  // Highest code point U+10FFFF = \udbff\udfff.
  EXPECT_EQ(parse(R"("\udbff\udfff")")->str, "\xf4\x8f\xbf\xbf");
  // Pair embedded in surrounding text survives intact.
  EXPECT_EQ(parse(R"("a\ud83d\ude00b")")->str,
            "a\xf0\x9f\x98\x80"
            "b");
}

TEST(Json, RejectsLoneAndUnpairedSurrogates) {
  std::string err;
  // Lone high surrogate at end of string.
  EXPECT_FALSE(parse(R"("\ud83d")", &err).has_value());
  EXPECT_NE(err.find("surrogate"), std::string::npos);
  // High surrogate followed by a non-escape.
  EXPECT_FALSE(parse(R"("\ud83dx")").has_value());
  // High surrogate followed by a non-\u escape.
  EXPECT_FALSE(parse(R"("\ud83d\n")").has_value());
  // High surrogate followed by another high surrogate.
  EXPECT_FALSE(parse(R"("\ud83d\ud83d")").has_value());
  // Lone low surrogate.
  err.clear();
  EXPECT_FALSE(parse(R"("\ude00")", &err).has_value());
  EXPECT_NE(err.find("surrogate"), std::string::npos);
}

TEST(Json, RejectsTruncatedUnicodeEscapes) {
  EXPECT_FALSE(parse(R"("\u")").has_value());
  EXPECT_FALSE(parse(R"("\u12")").has_value());
  EXPECT_FALSE(parse(R"("\u12g4")").has_value());
  // Truncated low half of a pair.
  EXPECT_FALSE(parse(R"("\ud83d\ude")").has_value());
}

TEST(Json, EscapedStringRoundTrips) {
  // write_escaped_string -> parse must be the identity for arbitrary
  // bytes, including control characters and UTF-8 multibyte sequences.
  const std::string cases[] = {
      "plain",
      "with \"quotes\" and \\backslash\\",
      "newline\ntab\tcr\rbell\x07",
      std::string("embedded\0nul", 12),
      "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80",  // e-acute, euro sign, emoji
  };
  for (const std::string& s : cases) {
    std::ostringstream os;
    write_escaped_string(os, s);
    const auto back = parse(os.str());
    ASSERT_TRUE(back.has_value()) << os.str();
    EXPECT_EQ(back->str, s);
  }
}

TEST(Json, RejectsMalformedInput) {
  std::string err;
  EXPECT_FALSE(parse("", &err).has_value());
  EXPECT_FALSE(parse("{", &err).has_value());
  EXPECT_FALSE(parse("[1,]", &err).has_value());
  EXPECT_FALSE(parse("{\"a\" 1}", &err).has_value());
  EXPECT_FALSE(parse("\"unterminated", &err).has_value());
  EXPECT_FALSE(parse("tru", &err).has_value());
  EXPECT_FALSE(parse("1 2", &err).has_value());  // trailing characters
  EXPECT_FALSE(parse("\"bad \\q escape\"", &err).has_value());
  EXPECT_FALSE(err.empty());
}

TEST(Json, FindOnNonObjectReturnsNull) {
  const auto doc = parse("[1,2]");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("a"), nullptr);
}

}  // namespace
}  // namespace jsi::util::json

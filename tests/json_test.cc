#include "common/json.h"

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "test_util.h"

namespace copydetect {
namespace {

// --- Construction + Dump ---

TEST(Json, ScalarDumps) {
  EXPECT_EQ(JsonValue::Null().Dump(), "null");
  EXPECT_EQ(JsonValue::Bool(true).Dump(), "true");
  EXPECT_EQ(JsonValue::Bool(false).Dump(), "false");
  EXPECT_EQ(JsonValue::Int64(-7).Dump(), "-7");
  EXPECT_EQ(JsonValue::Uint64(0).Dump(), "0");
  EXPECT_EQ(JsonValue::Str("hi").Dump(), "\"hi\"");
}

TEST(Json, Uint64AboveDoubleRangeIsLossless) {
  const uint64_t big = std::numeric_limits<uint64_t>::max();
  JsonValue v = JsonValue::Uint64(big);
  EXPECT_EQ(v.Dump(), "18446744073709551615");
  uint64_t out = 0;
  EXPECT_TRUE(v.AsUint64(&out));
  EXPECT_EQ(out, big);
}

TEST(Json, DoubleRendersShortestRoundTrip) {
  EXPECT_EQ(JsonValue::Double(0.1).Dump(), "0.1");
  EXPECT_EQ(JsonValue::Double(1.0).Dump(), "1");
  EXPECT_EQ(JsonValue::Double(-2.5).Dump(), "-2.5");
  // The rendered literal must parse back to the exact same double.
  const double tricky = 0.1 + 0.2;
  double round = 0.0;
  ASSERT_TRUE(JsonValue::Double(tricky).AsDouble(&round));
  EXPECT_EQ(round, tricky);
}

TEST(Json, NonFiniteDoubleRendersNull) {
  EXPECT_EQ(JsonValue::Double(std::numeric_limits<double>::infinity())
                .Dump(),
            "null");
  EXPECT_EQ(
      JsonValue::Double(std::numeric_limits<double>::quiet_NaN()).Dump(),
      "null");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(JsonValue::Str("a\"b\\c\n").Dump(), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(JsonValue::Str(std::string("\x01", 1)).Dump(),
            "\"\\u0001\"");
  // Multi-byte UTF-8 passes through untouched.
  EXPECT_EQ(JsonValue::Str("café").Dump(), "\"café\"");
}

TEST(Json, ObjectKeepsInsertionOrderAndSetOverwritesInPlace) {
  JsonValue obj = JsonValue::Object()
                      .Set("b", JsonValue::Uint64(1))
                      .Set("a", JsonValue::Uint64(2));
  EXPECT_EQ(obj.Dump(), "{\"b\":1,\"a\":2}");
  obj.Set("b", JsonValue::Str("x"));  // overwrite keeps position
  EXPECT_EQ(obj.Dump(), "{\"b\":\"x\",\"a\":2}");
}

TEST(Json, ArrayAndNestedDump) {
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Uint64(1));
  arr.Append(JsonValue::Object().Set("k", JsonValue::Null()));
  EXPECT_EQ(arr.Dump(), "[1,{\"k\":null}]");
}

TEST(Json, RawSplicesVerbatim) {
  JsonValue obj = JsonValue::Object().Set(
      "report", JsonValue::Raw("{\"x\":1.50}"));
  EXPECT_EQ(obj.Dump(), "{\"report\":{\"x\":1.50}}");
}

// --- Typed lookups ---

TEST(Json, TypedGetters) {
  JsonValue obj = JsonValue::Object()
                      .Set("s", JsonValue::Str("v"))
                      .Set("d", JsonValue::Double(1.5))
                      .Set("u", JsonValue::Uint64(9))
                      .Set("b", JsonValue::Bool(true));
  EXPECT_EQ(obj.GetString("s"), "v");
  EXPECT_EQ(obj.GetDouble("d", 0.0), 1.5);
  EXPECT_EQ(obj.GetUint64("u", 0), 9u);
  EXPECT_TRUE(obj.GetBool("b", false));
  // Absent or wrong kind falls back to the default.
  EXPECT_EQ(obj.GetString("missing", "def"), "def");
  EXPECT_EQ(obj.GetUint64("s", 3), 3u);
  EXPECT_EQ(obj.Find("missing"), nullptr);
}

// --- Parse ---

TEST(Json, ParseScalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_TRUE(ParseJson("true")->bool_value());
  EXPECT_EQ(ParseJson("\"a\\u0041\"")->text(), "aA");
  uint64_t u = 0;
  EXPECT_TRUE(ParseJson(" 42 ")->AsUint64(&u));
  EXPECT_EQ(u, 42u);
}

TEST(Json, ParseSurrogatePair) {
  auto v = ParseJson("\"\\ud83d\\ude00\"");  // 😀
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->text(), "\xF0\x9F\x98\x80");
}

TEST(Json, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("01").ok());          // leading zero
  EXPECT_FALSE(ParseJson("1 2").ok());         // trailing garbage
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("'single'").ok());
  EXPECT_FALSE(ParseJson("\"\\x41\"").ok());   // bad escape
  EXPECT_FALSE(ParseJson("nulL").ok());
}

TEST(Json, ParseErrorNamesByteOffset) {
  auto v = ParseJson("[1,@]");
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().message().find("byte 3"), std::string::npos)
      << v.status().ToString();
}

TEST(Json, ParseBoundsNestingDepth) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
  std::string ok(32, '[');
  ok += std::string(32, ']');
  EXPECT_TRUE(ParseJson(ok).ok());
}

// --- The byte-stability contract the serving recovery smoke rests on:
// Parse(Dump(x)) dumps back to the exact same bytes, including number
// literals that a double round trip would rewrite. ---

TEST(Json, ParseDumpRoundTripIsByteIdentical) {
  const std::string canonical =
      "{\"detector\":\"hybrid\",\"accuracy\":0.8714285714285714,"
      "\"n\":50,\"big\":18446744073709551615,\"exp\":1e-9,"
      "\"trailing\":1.50,\"list\":[null,true,\"\\u0001é\"]}";
  auto parsed = ParseJson(canonical);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Dump(), canonical);
  // And a second generation stays fixed.
  EXPECT_EQ(ParseJson(parsed->Dump())->Dump(), canonical);
}

// --- Number literals: AppendJsonDouble keeps the spelling of the
// original "%.*g, precision 1..17, first that round-trips" loop. ---

std::string Literal(double d) {
  std::string out;
  AppendJsonDouble(d, &out);
  return out;
}

TEST(JsonDouble, ExactSpellings) {
  EXPECT_EQ(Literal(1e-05), "1e-05");
  EXPECT_EQ(Literal(0.0001), "0.0001");
  EXPECT_EQ(Literal(100.0), "1e+02");
  EXPECT_EQ(Literal(123.0), "123");
  EXPECT_EQ(Literal(1e+21), "1e+21");
  EXPECT_EQ(Literal(5e-324), "5e-324");
  EXPECT_EQ(Literal(-0.0), "-0");
  EXPECT_EQ(Literal(0.0), "0");
  EXPECT_EQ(Literal(DBL_MAX), "1.7976931348623157e+308");
  EXPECT_EQ(Literal(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(Literal(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(Literal(std::numeric_limits<double>::quiet_NaN()), "null");
  // JsonValue::Double renders through the same writer.
  EXPECT_EQ(JsonValue::Double(1e-05).Dump(), "1e-05");
}

void ExpectMatchesReference(double d) {
  ASSERT_EQ(Literal(d), testutil::ReferenceDoubleLiteral(d))
      << "bits 0x" << std::hex << std::bit_cast<uint64_t>(d);
}

TEST(JsonDouble, MatchesReferenceLoopOnRandomDoubles) {
  Rng rng(20261018);
  for (int i = 0; i < 20000; ++i) {
    ExpectMatchesReference(rng.NextDouble());
    // Arbitrary bit patterns cover every exponent, subnormals too.
    const double any = std::bit_cast<double>(rng.NextU64());
    if (std::isfinite(any)) ExpectMatchesReference(any);
  }
}

TEST(JsonDouble, MatchesReferenceLoopAroundPowersOfTwo) {
  // The narrow side of a power of two is where the correctly rounded
  // shortest-length decimal can fail to round-trip, so the loop runs
  // past the shortest digit count there.
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    for (double d :
         {p, std::nextafter(p, 0.0), std::nextafter(p, DBL_MAX)}) {
      ExpectMatchesReference(d);
      ExpectMatchesReference(-d);
    }
  }
}

}  // namespace
}  // namespace copydetect

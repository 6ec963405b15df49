// Unit tests for ids, status, string helpers, the JSON reader and the seeded
// RNG.

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>

#include "common/ids.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/str.h"

namespace hermes {
namespace {

TEST(Ids, TxnIdOrderingAndKinds) {
  const TxnId g = TxnId::MakeGlobal(2, 7);
  const TxnId l = TxnId::MakeLocal(2, 7);
  EXPECT_TRUE(g.global());
  EXPECT_TRUE(l.local());
  EXPECT_NE(g, l);
  EXPECT_FALSE(TxnId{}.valid());
  EXPECT_EQ(g.ToString(), "G7@2");
  EXPECT_EQ(l.ToString(), "L7@2");
  const SubTxnId sub{g, 3};
  EXPECT_EQ(sub.ToString(), "G7@2.3");
}

TEST(Ids, ItemIdComparesLexicographically) {
  const ItemId a{0, 1, 5};
  const ItemId b{0, 1, 6};
  const ItemId c{1, 0, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (ItemId{0, 1, 5}));
  std::hash<TxnId> h1;
  ItemIdHash h2;
  EXPECT_NE(h1(TxnId::MakeGlobal(0, 1)), h1(TxnId::MakeGlobal(0, 2)));
  EXPECT_NE(h2(a), h2(b));
}

TEST(Status, CodesAndMessages) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status s = Status::Aborted("deadlock");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  EXPECT_EQ(s.ToString(), "ABORTED: deadlock");
  EXPECT_EQ(Status::Ok().ToString(), "OK");
}

TEST(Status, ResultHoldsValueOrStatus) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> bad(Status::NotFound("x"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST(Str, CatJoinAppend) {
  EXPECT_EQ(StrCat("a", 1, "b", 2.5, true), "a1b2.500000true");
  EXPECT_EQ(StrJoin(std::vector<int>{1, 2, 3}, ","), "1,2,3");
  std::string s = "x";
  StrAppend(s, "y", 7);
  EXPECT_EQ(s, "xy7");
}

// Reads one value of `type` ('s' string, 'l' Int64, 'i' Int32, 'd' Double)
// and the end of input; returns the value as text, or the reader's error.
std::string ReadOneJsonValue(std::string_view in, char type) {
  JsonReader r(in, "test");
  std::string text;
  bool ok = false;
  if (type == 's') {
    ok = r.String(text);
  } else if (type == 'l') {
    int64_t v = 0;
    ok = r.Int64(v);
    text = std::to_string(v);
  } else if (type == 'i') {
    int32_t v = 0;
    ok = r.Int32(v);
    text = std::to_string(v);
  } else {
    double v = 0;
    ok = r.Double(v);
    char buf[32];
    text.assign(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  }
  return ok && r.ExpectEnd() ? text : r.status().message();
}

TEST(JsonReader, ReadsValuesAndReportsErrorsWithOffsets) {
  struct Case {
    std::string_view in;
    char type;
    std::string_view want;
  };
  const Case cases[] = {
      // Strings: every escape, surrounding whitespace, malformed forms.
      {R"("a\"b\\c\/d\be\ff\ng\rh\ti\u0041")", 's',
       "a\"b\\c/d\be\ff\ng\rh\tiA"},
      {R"(  "plain"  )", 's', "plain"},
      {R"("\u00e9")", 's',
       "test at offset 3: non-ASCII \\u escape unsupported"},
      {R"("\u12")", 's', "test at offset 3: bad \\u escape"},
      {R"("\x")", 's', "test at offset 3: unknown escape"},
      {R"("abc\)", 's', "test at offset 5: dangling escape"},
      {R"("abc)", 's', "test at offset 4: unterminated string"},
      {"7", 's', "test at offset 0: expected '\"'"},
      // Integers.
      {"-9223372036854775808", 'l', "-9223372036854775808"},
      {"-", 'l', "test at offset 0: expected integer"},
      {"+1", 'l', "test at offset 0: expected integer"},
      {"9223372036854775808", 'l', "test at offset 19: integer out of range"},
      {"-2147483648", 'i', "-2147483648"},
      {"2147483648", 'i', "test at offset 10: integer out of range"},
      {"4294967297", 'i', "test at offset 10: integer out of range"},
      // Doubles.
      {"1e-3", 'd', "0.001"},
      {"-0.5", 'd', "-0.5"},
      {"1.7976931348623157e308", 'd', "1.7976931348623157e+308"},
      {"1e999", 'd', "test at offset 5: number out of range"},
      {"inf", 'd', "test at offset 0: expected number"},
      {".5", 'd', "test at offset 0: expected number"},
      // Trailing characters after a complete value.
      {"12 x", 'l', "test at offset 3: trailing characters"},
      {R"("a" "b")", 's', "test at offset 4: trailing characters"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(ReadOneJsonValue(c.in, c.type), c.want) << c.in;
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  bool differ = false;
  Rng a2(123);
  for (int i = 0; i < 10; ++i) {
    if (a2.Next() != c.Next()) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(Rng, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(10), 10u);
    const int64_t v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(99);
  int buckets[10] = {0};
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) ++buckets[rng.NextUint64(10)];
  for (int b : buckets) {
    EXPECT_NEAR(b, kSamples / 10, kSamples / 100);
  }
}

TEST(Zipf, ThetaZeroIsUniform) {
  Rng rng(1);
  ZipfGenerator zipf(100, 0.0);
  int low = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    if (zipf.Next(rng) < 50) ++low;
  }
  EXPECT_NEAR(low, kSamples / 2, kSamples / 20);
}

TEST(Zipf, SkewConcentratesOnSmallRanks) {
  Rng rng(1);
  ZipfGenerator zipf(1000, 0.99);
  int top10 = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    if (zipf.Next(rng) < 10) ++top10;
  }
  // Under theta=0.99 the top-1% of ranks draw a large share of accesses.
  EXPECT_GT(top10, kSamples / 4);
}

TEST(Zipf, LargeDomainUsesApproximation) {
  Rng rng(5);
  ZipfGenerator zipf(1 << 20, 0.8);  // beyond the CDF table limit
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(zipf.Next(rng), static_cast<uint64_t>(1) << 20);
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(42);
  Rng child = parent.Fork();
  bool differ = false;
  for (int i = 0; i < 10; ++i) {
    if (parent.Next() != child.Next()) differ = true;
  }
  EXPECT_TRUE(differ);
}

}  // namespace
}  // namespace hermes

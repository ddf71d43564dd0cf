#include <algorithm>

#include <gtest/gtest.h>

#include "query/printer.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"

namespace scalein {
namespace {

TEST(StatusTest, CodesAndMessages) {
  Status ok = Status::OK();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "ok");

  Status bad = Status::InvalidArgument("broken");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.ToString(), "invalid-argument: broken");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "resource-exhausted");
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> err = Status::NotFound("nope");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

Result<int> Doubler(Result<int> in) {
  SI_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  Result<int> ok = Doubler(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> err = Doubler(Status::Internal("x"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInternal);
}

TEST(StringsTest, JoinSplitStrip) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Split("a, b ,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

TEST(StringsTest, ParseU64AcceptsOnlyInRangeDecimals) {
  EXPECT_EQ(*ParseU64("0"), 0u);
  EXPECT_EQ(*ParseU64("007"), 7u);
  EXPECT_EQ(*ParseU64("18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"", " 1", "1 ", "+1", "-1", "1e3", "0x10", "abc",
                          "18446744073709551616", "18446744073709551620",
                          "99999999999999999999", "184467440737095516150"}) {
    Result<uint64_t> parsed = ParseU64(bad);
    EXPECT_FALSE(parsed.ok()) << "'" << bad << "'";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_NE(ParseU64("18446744073709551616").status().message().find(
                "out of range"),
            std::string::npos);
}

TEST(StringsTest, StrFormatAndHash) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%s", ""), "");
  uint64_t h1 = Fnv1a64("abc", 3);
  uint64_t h2 = Fnv1a64("abc", 3);
  uint64_t h3 = Fnv1a64("abd", 3);
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, h3);
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(PrinterTest, TableAlignment) {
  TablePrinter table({"name", "count"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "1000"});
  std::string out = table.Render();
  // Header, separator, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_EQ(FormatCount(1234567), "1,234,567");
  EXPECT_EQ(FormatCount(12), "12");
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, NextDoubleRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

}  // namespace
}  // namespace scalein

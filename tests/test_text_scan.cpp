// The shared from_chars tokenizer behind every text-format reader.
#include "core/text_scan.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "core/error.hpp"

namespace epgs::text {
namespace {

TEST(LineScanner, SplitsLinesAndCountsFromOne) {
  LineScanner lines("a\nb\n\nc");
  std::string_view line;
  ASSERT_TRUE(lines.next(line));
  EXPECT_EQ(line, "a");
  EXPECT_EQ(lines.line_no(), 1u);
  ASSERT_TRUE(lines.next(line));
  EXPECT_EQ(line, "b");
  ASSERT_TRUE(lines.next(line));
  EXPECT_EQ(line, "");
  ASSERT_TRUE(lines.next(line));
  EXPECT_EQ(line, "c");  // no trailing newline
  EXPECT_EQ(lines.line_no(), 4u);
  EXPECT_FALSE(lines.next(line));
}

TEST(LineScanner, EmptyInputYieldsNoLines) {
  LineScanner lines("");
  std::string_view line;
  EXPECT_FALSE(lines.next(line));
}

TEST(NextToken, SkipsWhitespaceIncludingCarriageReturn) {
  std::string_view line = "  12\t34 56\r";
  EXPECT_EQ(next_token(line), "12");
  EXPECT_EQ(next_token(line), "34");
  EXPECT_EQ(next_token(line), "56");
  EXPECT_EQ(next_token(line), "");  // exhausted
}

TEST(NextField, SplitsOnDelimiterKeepingEmptyFields) {
  std::string_view line = "a,,c";
  EXPECT_EQ(next_field(line, ','), "a");
  EXPECT_EQ(next_field(line, ','), "");
  EXPECT_EQ(next_field(line, ','), "c");
  EXPECT_TRUE(line.empty());
}

TEST(NextField, StripsTrailingCarriageReturn) {
  std::string_view line = "1,2\r";
  EXPECT_EQ(next_field(line, ','), "1");
  EXPECT_EQ(next_field(line, ','), "2");
}

TEST(Split, KeepsEmptyFields) {
  using V = std::vector<std::string_view>;
  EXPECT_EQ(split("a||b", '|'), (V{"a", "", "b"}));
  EXPECT_EQ(split("a|", '|'), (V{"a", ""}));
  EXPECT_EQ(split("", '|'), (V{""}));
  EXPECT_EQ(split("abc", '|'), (V{"abc"}));
}

TEST(TextNumber, RejectsEverythingButAWholeNumber) {
  struct Case {
    std::string_view tok;
    const char* why;
  };
  for (const Case& c : {Case{"", "empty"}, Case{" 1", "leading space"},
                        Case{"1 ", "trailing space"}, Case{"+1", "plus"},
                        Case{"1x", "trailing junk"}, Case{"-1", "negative"},
                        Case{"18446744073709551616", "overflow"},
                        Case{"0x10", "hex"}, Case{"1.0", "fraction"}}) {
    EXPECT_FALSE(parse_number<std::uint64_t>(c.tok).has_value()) << c.why;
  }
  EXPECT_FALSE(parse_number<int>("2147483648").has_value());
  EXPECT_FALSE(parse_number<std::uint32_t>("4294967296").has_value());
  for (const std::string_view tok : {"", " 1", "+1", "1x", "1e", "1e999"}) {
    EXPECT_FALSE(parse_number<double>(tok).has_value()) << "'" << tok << "'";
  }
}

TEST(TextNumber, AcceptsTheFormsWritersEmit) {
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_number<int>("-2147483648"),
            std::numeric_limits<int>::min());
  EXPECT_EQ(parse_number<std::int64_t>("-1"), -1);
  EXPECT_EQ(parse_number<double>("1e-05"), 1e-05);
  EXPECT_EQ(parse_number<double>(".5"), 0.5);
  EXPECT_EQ(parse_number<double>("-4"), -4.0);
  EXPECT_EQ(parse_number<double>("inf"),
            std::numeric_limits<double>::infinity());
  for (const std::string_view nan : {"nan", "-nan"}) {
    const auto v = parse_number<double>(nan);
    ASSERT_TRUE(v.has_value()) << nan;
    EXPECT_TRUE(std::isnan(*v)) << nan;
  }
}

TEST(TextNumber, WriterFormsRoundTripExactly) {
  // records CSV seconds: %.9g, exact for values with <= 9 digits.
  for (const double x : {0.0, 0.5, 1e-05, 123456.789, 6.02214076e23, -0.125,
                         0.000123456789}) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", x);
    EXPECT_EQ(parse_number<double>(buf), x) << buf;
  }
  // Child payload and phase timelines: precision 17, exact for any double.
  for (const double x : {1.0 / 3.0, 0.1, 1e-05, 2.2250738585072014e-308,
                         std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::max()}) {
    std::ostringstream os;
    os.precision(17);
    os << x;
    EXPECT_EQ(parse_number<double>(os.str()), x) << os.str();
  }
}

TEST(ParseU64, AcceptsFullTokenOnly) {
  EXPECT_EQ(parse_u64("42", "t", "x", 1), 42u);
  EXPECT_THROW((void)parse_u64("", "t", "x", 1), ParseError);
  EXPECT_THROW((void)parse_u64("4x2", "t", "x", 1), ParseError);
  EXPECT_THROW((void)parse_u64("-1", "t", "x", 1), ParseError);
  EXPECT_THROW((void)parse_u64("3.5", "t", "x", 1), ParseError);
}

TEST(ParseDouble, AcceptsWriterForms) {
  EXPECT_DOUBLE_EQ(parse_double("2.5", "t", "w", 1), 2.5);
  EXPECT_DOUBLE_EQ(parse_double("1e-3", "t", "w", 1), 1e-3);
  EXPECT_DOUBLE_EQ(parse_double("-4", "t", "w", 1), -4.0);
  EXPECT_THROW((void)parse_double("fast", "t", "w", 1), ParseError);
  EXPECT_THROW((void)parse_double("1.2.3", "t", "w", 1), ParseError);
}

TEST(ParseVid, EnforcesThirtyTwoBitRange) {
  EXPECT_EQ(parse_vid("7", "t", 1), 7u);
  EXPECT_THROW((void)parse_vid("4294967295", "t", 1), EpgsError);
  EXPECT_THROW((void)parse_vid("nine", "t", 1), ParseError);
}

TEST(Fail, MessageNamesContextTokenAndLine) {
  try {
    fail("mtx", "weight", "abc", 17);
    FAIL() << "fail() must throw";
  } catch (const ParseError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("mtx"), std::string::npos);
    EXPECT_NE(msg.find("weight"), std::string::npos);
    EXPECT_NE(msg.find("'abc'"), std::string::npos);
    EXPECT_NE(msg.find("17"), std::string::npos);
  }
}

}  // namespace
}  // namespace epgs::text

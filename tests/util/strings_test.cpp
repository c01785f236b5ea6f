#include "util/strings.hpp"

#include <gtest/gtest.h>

namespace wavepipe::util {
namespace {

TEST(Strings, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("AbC123xYz"), "abc123xyz");
  EXPECT_EQ(ToLowerAscii(""), "");
  EXPECT_EQ(ToLowerAscii('Z'), 'z');
  EXPECT_EQ(ToLowerAscii('a'), 'a');
  EXPECT_EQ(ToLowerAscii('1'), '1');
}

TEST(Strings, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("PULSE", "pulse"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("pulse", "pulses"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
}

TEST(Strings, StartsWithIgnoreCase) {
  EXPECT_TRUE(StartsWithIgnoreCase(".MODEL nmos1", ".model"));
  EXPECT_FALSE(StartsWithIgnoreCase(".mod", ".model"));
}

TEST(Strings, TrimAscii) {
  EXPECT_EQ(TrimAscii("  hello \t\r\n"), "hello");
  EXPECT_EQ(TrimAscii(""), "");
  EXPECT_EQ(TrimAscii(" \t "), "");
  EXPECT_EQ(TrimAscii("x"), "x");
}

TEST(Strings, SplitTokens) {
  const auto tokens = SplitTokens("r1  in \t out  1k");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "r1");
  EXPECT_EQ(tokens[3], "1k");
  EXPECT_TRUE(SplitTokens("   ").empty());
}

TEST(Strings, SplitExactKeepsEmptyFields) {
  const auto fields = SplitExact("a,,b", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "");
}

struct SpiceNumberCase {
  const char* text;
  double expected;
};

// ctest names each case after its printed parameter; gtest's default byte
// dump would embed the string literal's address, which ASLR changes per run.
// Blanks print as '_' so a name never holds a run of spaces, which log
// parsers tend to collapse.
void PrintTo(const SpiceNumberCase& c, std::ostream* os) {
  *os << '\'';
  for (const char* p = c.text; *p != '\0'; ++p) *os << (*p == ' ' ? '_' : *p);
  *os << '\'';
}

class SpiceNumberTest : public ::testing::TestWithParam<SpiceNumberCase> {};

TEST_P(SpiceNumberTest, Parses) {
  const auto& param = GetParam();
  const auto value = ParseSpiceNumber(param.text);
  ASSERT_TRUE(value.has_value()) << param.text;
  EXPECT_DOUBLE_EQ(*value, param.expected) << param.text;
}

INSTANTIATE_TEST_SUITE_P(
    Suffixes, SpiceNumberTest,
    ::testing::Values(
        SpiceNumberCase{"1", 1.0}, SpiceNumberCase{"-2.5", -2.5},
        SpiceNumberCase{"1k", 1e3}, SpiceNumberCase{"1K", 1e3},
        SpiceNumberCase{"2.5u", 2.5e-6}, SpiceNumberCase{"10MEG", 1e7},
        SpiceNumberCase{"10meg", 1e7}, SpiceNumberCase{"3mil", 3 * 25.4e-6},
        SpiceNumberCase{"1m", 1e-3}, SpiceNumberCase{"1n", 1e-9},
        SpiceNumberCase{"1p", 1e-12}, SpiceNumberCase{"1f", 1e-15},
        SpiceNumberCase{"1a", 1e-18}, SpiceNumberCase{"1t", 1e12},
        SpiceNumberCase{"1g", 1e9}, SpiceNumberCase{"10pF", 10e-12},
        SpiceNumberCase{"10V", 10.0}, SpiceNumberCase{"1e-3", 1e-3},
        SpiceNumberCase{"1.5e3k", 1.5e6}, SpiceNumberCase{"  7 ", 7.0}));

TEST(SpiceNumber, RejectsGarbage) {
  EXPECT_FALSE(ParseSpiceNumber("").has_value());
  EXPECT_FALSE(ParseSpiceNumber("abc").has_value());
  EXPECT_FALSE(ParseSpiceNumber("1.2.3").has_value());
  EXPECT_FALSE(ParseSpiceNumber("1k 2").has_value());
  EXPECT_FALSE(ParseSpiceNumber("1k!").has_value());
}

TEST(FormatDouble, Compact) {
  EXPECT_EQ(FormatDouble(1.5), "1.5");
  EXPECT_EQ(FormatDouble(0.0), "0");
  EXPECT_EQ(FormatDouble(1234567.0, 3), "1.23e+06");
}

}  // namespace
}  // namespace wavepipe::util

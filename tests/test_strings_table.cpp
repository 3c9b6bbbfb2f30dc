// Tests for the string utilities and the result table's plain helpers.
#include <gtest/gtest.h>

#include <sstream>

#include "runner/emit.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace eas::util {
namespace {

TEST(Split, PreservesEmptyFields) {
  const auto fields = split("a,,b", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
}

TEST(Split, EmptyInputYieldsOneEmptyField) {
  const auto fields = split("", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "");
}

TEST(Split, TrailingDelimiterYieldsTrailingEmpty) {
  const auto fields = split("x,y,", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[2], "");
}

TEST(Split, NoDelimiterYieldsWhole) {
  const auto fields = split("hello", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "hello");
}

TEST(Trim, RemovesSurroundingWhitespaceOnly) {
  EXPECT_EQ(trim("  a b \t\n"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(ParseDouble, AcceptsPlainAndScientific) {
  EXPECT_DOUBLE_EQ(*parse_double("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*parse_double("-0.25"), -0.25);
  EXPECT_DOUBLE_EQ(*parse_double("1e3"), 1000.0);
  EXPECT_DOUBLE_EQ(*parse_double(" 42 "), 42.0);
}

TEST(ParseDouble, RejectsGarbage) {
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("1.5x").has_value());
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("1.5 2.0").has_value());
}

TEST(ParseInt, AcceptsSignedIntegers) {
  EXPECT_EQ(*parse_int("123"), 123);
  EXPECT_EQ(*parse_int("-9"), -9);
  EXPECT_EQ(*parse_int(" 7 "), 7);
}

TEST(ParseInt, RejectsFloatsAndGarbage) {
  EXPECT_FALSE(parse_int("1.5").has_value());
  EXPECT_FALSE(parse_int("x").has_value());
  EXPECT_FALSE(parse_int("").has_value());
}

TEST(IStartsWith, IsCaseInsensitive) {
  EXPECT_TRUE(istarts_with("Hello World", "hello"));
  EXPECT_TRUE(istarts_with("ABC", "ABC"));
  EXPECT_FALSE(istarts_with("AB", "ABC"));
  EXPECT_FALSE(istarts_with("xyz", "ab"));
}

TEST(ToLower, LowersAsciiOnly) {
  EXPECT_EQ(to_lower("AbC-12"), "abc-12");
}

// The aligned rendering, row-width checks and cell precision are pinned by
// the EmitterGolden tests; these cover what those do not.
TEST(ResultTable, RejectsCellBeforeRow) {
  runner::ResultTable t("", {"h"});
  EXPECT_THROW(t.cell("x"), InvariantError);
}

TEST(ResultTable, CountsRows) {
  runner::ResultTable t("", {"h"});
  EXPECT_EQ(t.num_rows(), 0u);
  t.row().cell("a");
  t.row().cell("b");
  EXPECT_EQ(t.num_rows(), 2u);
}

// The examples print through an untitled table: no "===" line.
TEST(ResultTable, UntitledTablePrintsNoTitleLine) {
  runner::ResultTable t("", {"metric", "v"});
  t.row().cell("energy (kJ)").cell(1.25, 1);
  std::ostringstream os;
  t.emit_table(os);
  EXPECT_EQ(os.str(),
            "metric       v  \n"
            "----------------\n"
            "energy (kJ)  1.2\n");
}

}  // namespace
}  // namespace eas::util

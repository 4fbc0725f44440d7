/** @file Unit tests for string helpers. */

#include <gtest/gtest.h>

#include "common/strings.hpp"

namespace powermove {
namespace {

TEST(FormatGeneralTest, SignificantDigits)
{
    EXPECT_EQ(formatGeneral(3.14159, 3), "3.14");
    EXPECT_EQ(formatGeneral(12345.678, 6), "12345.7");
    EXPECT_EQ(formatGeneral(0.0), "0");
}

TEST(FormatFidelityTest, FixedAboveOnePercent)
{
    EXPECT_EQ(formatFidelity(0.75), "0.75");
    EXPECT_EQ(formatFidelity(0.05), "0.05");
    EXPECT_EQ(formatFidelity(1.0), "1.00");
}

TEST(FormatFidelityTest, ScientificBelowOnePercent)
{
    EXPECT_EQ(formatFidelity(6.92e-4), "6.92e-04");
    EXPECT_EQ(formatFidelity(7.12e-9), "7.12e-09");
}

TEST(FormatFidelityTest, ZeroStaysFixed)
{
    EXPECT_EQ(formatFidelity(0.0), "0.00");
}

TEST(FormatRatioTest, TwoDecimalsBelowHundred)
{
    EXPECT_EQ(formatRatio(3.46), "3.46x");
    EXPECT_EQ(formatRatio(1.0), "1.00x");
}

TEST(FormatRatioTest, OneDecimalAboveHundred)
{
    EXPECT_EQ(formatRatio(213.54), "213.5x"); // paper's headline number
    EXPECT_EQ(formatRatio(100.0), "100.0x");
}

TEST(JoinTest, Basic)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(TrimTest, RemovesSurroundingWhitespace)
{
    EXPECT_EQ(trim("  hello  "), "hello");
    EXPECT_EQ(trim("\t\nx\r "), "x");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim("inner space kept"), "inner space kept");
}

TEST(SplitTest, KeepsEmptyFields)
{
    EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
    EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
    EXPECT_EQ(split("x,", ','), (std::vector<std::string>{"x", ""}));
}

TEST(StartsWithTest, Basics)
{
    EXPECT_TRUE(startsWith("powermove", "power"));
    EXPECT_FALSE(startsWith("power", "powermove"));
    EXPECT_TRUE(startsWith("anything", ""));
}

TEST(EscapeJsonTest, EscapesQuotesBackslashesAndControlBytes)
{
    EXPECT_EQ(escapeJson("plain"), "plain");
    EXPECT_EQ(escapeJson("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(escapeJson("a\\b"), "a\\\\b");
    EXPECT_EQ(escapeJson("l1\nl2\tx\ry"), "l1\\nl2\\tx\\ry");
    EXPECT_EQ(escapeJson(std::string_view("\x01\x1f\0", 3)),
              "\\u0001\\u001f\\u0000");
    EXPECT_EQ(escapeJson("\x7f"), "\x7f"); // DEL is not a control byte
}

} // namespace
} // namespace powermove

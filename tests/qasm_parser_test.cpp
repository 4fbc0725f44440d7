/** @file Tests for the OpenQASM parser. */

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <string>

#include "common/error.hpp"
#include "qasm/parser.hpp"

namespace powermove::qasm {
namespace {

TEST(ParserTest, HeaderAndIncludes)
{
    const auto program = parseProgram(
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n");
    EXPECT_EQ(program.version, "2.0");
    ASSERT_EQ(program.includes.size(), 1u);
    EXPECT_EQ(program.includes[0], "qelib1.inc");
    ASSERT_EQ(program.statements.size(), 1u);
    const auto &reg = std::get<RegDecl>(program.statements[0]);
    EXPECT_EQ(reg.name, "q");
    EXPECT_EQ(reg.size, 3u);
    EXPECT_TRUE(reg.quantum);
}

TEST(ParserTest, HeaderIsOptional)
{
    const auto program = parseProgram("qreg q[1];\nh q[0];\n");
    EXPECT_EQ(program.statements.size(), 2u);
}

TEST(ParserTest, CregDeclaration)
{
    const auto program = parseProgram("qreg q[2]; creg c[2];");
    const auto &creg = std::get<RegDecl>(program.statements[1]);
    EXPECT_FALSE(creg.quantum);
    EXPECT_EQ(creg.name, "c");
}

TEST(ParserTest, GateCallWithIndexedArgs)
{
    const auto program = parseProgram("qreg q[4]; cz q[0],q[3];");
    const auto &call = std::get<GateCall>(program.statements[1]);
    EXPECT_EQ(call.name, "cz");
    ASSERT_EQ(call.args.size(), 2u);
    EXPECT_EQ(call.args[0].reg, "q");
    EXPECT_EQ(*call.args[0].index, 0u);
    EXPECT_EQ(*call.args[1].index, 3u);
}

TEST(ParserTest, GateCallWithBroadcastArg)
{
    const auto program = parseProgram("qreg q[4]; h q;");
    const auto &call = std::get<GateCall>(program.statements[1]);
    EXPECT_FALSE(call.args[0].index.has_value());
}

TEST(ParserTest, ParameterExpressions)
{
    const auto program =
        parseProgram("qreg q[1]; rz(pi/4) q[0]; rx(-2*pi) q[0]; "
                     "ry(sin(pi/2)+3^2) q[0];");
    const auto &rz = std::get<GateCall>(program.statements[1]);
    EXPECT_NEAR(evaluateExpr(rz.params[0], {}), std::numbers::pi / 4, 1e-12);
    const auto &rx = std::get<GateCall>(program.statements[2]);
    EXPECT_NEAR(evaluateExpr(rx.params[0], {}), -2 * std::numbers::pi, 1e-12);
    const auto &ry = std::get<GateCall>(program.statements[3]);
    EXPECT_NEAR(evaluateExpr(ry.params[0], {}), 1.0 + 9.0, 1e-12);
}

TEST(ParserTest, PowerIsRightAssociative)
{
    const auto program = parseProgram("qreg q[1]; rz(2^3^2) q[0];");
    const auto &call = std::get<GateCall>(program.statements[1]);
    EXPECT_DOUBLE_EQ(evaluateExpr(call.params[0], {}), 512.0);
}

TEST(ParserTest, ParameterBindings)
{
    const auto program = parseProgram("qreg q[1]; rz(theta/2) q[0];");
    const auto &call = std::get<GateCall>(program.statements[1]);
    EXPECT_DOUBLE_EQ(evaluateExpr(call.params[0], {{"theta", 3.0}}), 1.5);
    EXPECT_THROW(evaluateExpr(call.params[0], {}), ParseError);
}

TEST(ParserTest, GateDeclaration)
{
    const auto program = parseProgram(
        "qreg q[2];\n"
        "gate bell a,b { h a; cx a,b; }\n"
        "bell q[0],q[1];\n");
    const auto &decl = std::get<GateDecl>(program.statements[1]);
    EXPECT_EQ(decl.name, "bell");
    EXPECT_TRUE(decl.params.empty());
    EXPECT_EQ(decl.qubits, (std::vector<std::string>{"a", "b"}));
    ASSERT_EQ(decl.body.size(), 2u);
    EXPECT_EQ(decl.body[0].name, "h");
    EXPECT_EQ(decl.body[1].name, "cx");
}

TEST(ParserTest, ParameterizedGateDeclaration)
{
    const auto program = parseProgram(
        "qreg q[1];\n"
        "gate phase(lambda) a { rz(lambda) a; }\n"
        "phase(pi) q[0];\n");
    const auto &decl = std::get<GateDecl>(program.statements[1]);
    EXPECT_EQ(decl.params, (std::vector<std::string>{"lambda"}));
}

TEST(ParserTest, MeasureStatement)
{
    const auto program =
        parseProgram("qreg q[2]; creg c[2]; measure q[1] -> c[1];");
    const auto &measure = std::get<MeasureStmt>(program.statements[2]);
    EXPECT_EQ(measure.source.reg, "q");
    EXPECT_EQ(*measure.source.index, 1u);
    EXPECT_EQ(measure.target_reg, "c");
}

TEST(ParserTest, MeasureWholeRegister)
{
    const auto program =
        parseProgram("qreg q[2]; creg c[2]; measure q -> c;");
    const auto &measure = std::get<MeasureStmt>(program.statements[2]);
    EXPECT_FALSE(measure.source.index.has_value());
}

TEST(ParserTest, BarrierStatement)
{
    const auto program = parseProgram("qreg q[3]; barrier q[0],q[2];");
    const auto &barrier = std::get<BarrierStmt>(program.statements[1]);
    EXPECT_EQ(barrier.args.size(), 2u);
}

TEST(ParserTest, ResetRejectedWithClearMessage)
{
    try {
        parseProgram("qreg q[1]; reset q[0];");
        FAIL() << "expected ParseError";
    } catch (const ParseError &error) {
        EXPECT_NE(std::string(error.what()).find("reset"),
                  std::string::npos);
    }
}

TEST(ParserTest, IfRejected)
{
    EXPECT_THROW(parseProgram("qreg q[1]; creg c[1]; if (c==1) x q[0];"),
                 ParseError);
}

TEST(ParserTest, SyntaxErrorsCarryPositions)
{
    try {
        parseProgram("qreg q[2];\ncz q[0] q[1];"); // missing comma
        FAIL() << "expected ParseError";
    } catch (const ParseError &error) {
        EXPECT_EQ(error.line(), 2u);
    }
}

TEST(ParserTest, ZeroSizeRegisterRejected)
{
    EXPECT_THROW(parseProgram("qreg q[0];"), ParseError);
}

TEST(ParserTest, MissingSemicolonRejected)
{
    EXPECT_THROW(parseProgram("qreg q[2]"), ParseError);
    EXPECT_THROW(parseProgram("qreg q[2]; h q[0]"), ParseError);
}

/** `rz(<expr>) q[0];` on line 2, the parameter starting at column 4. */
std::string
rzProgram(const std::string &expr)
{
    return "qreg q[1];\nrz(" + expr + ") q[0];";
}

/** @p count copies of @p text back to back. */
std::string
repeat(const std::string &text, std::size_t count)
{
    std::string out;
    for (std::size_t i = 0; i < count; ++i)
        out += text;
    return out;
}

// Regression: 5000 nested parentheses used to overflow the stack of the
// recursive descent (SIGSEGV) instead of raising a typed error.
TEST(ParserDepthTest, DeeplyNestedParenthesesRaiseParseError)
{
    try {
        parseProgram(rzProgram(repeat("(", 5000) + "1" + repeat(")", 5000)));
        FAIL() << "expected ParseError";
    } catch (const ParseError &error) {
        EXPECT_EQ(error.line(), 2u);
        // The first parenthesis past the limit: column 4 opens level 1.
        EXPECT_EQ(error.column(), 4u + kMaxExprDepth);
        EXPECT_NE(std::string(error.what()).find("nested deeper"),
                  std::string::npos);
    }
}

TEST(ParserDepthTest, EveryNestingFormCountsTowardTheLimit)
{
    const std::size_t over = kMaxExprDepth + 1;
    EXPECT_THROW(parseProgram(rzProgram(repeat("-", over) + "1")),
                 ParseError);
    EXPECT_THROW(parseProgram(rzProgram(repeat("2^", over) + "1")),
                 ParseError);
    EXPECT_THROW(parseProgram(rzProgram(repeat("sin(", over) + "1" +
                                        repeat(")", over))),
                 ParseError);
    // A left-leaning chain builds one tree level per operator without
    // any recursion in the parser; its depth is still bounded.
    EXPECT_THROW(parseProgram(rzProgram("1" + repeat("+1", over))),
                 ParseError);
    EXPECT_THROW(parseProgram(rzProgram("1" + repeat("*1", over))),
                 ParseError);
    // Chains inside nested groups add up: 200 levels of parentheses each
    // holding a 2-term sum would be 400 deep.
    EXPECT_THROW(parseProgram(rzProgram(repeat("(1+", 200) + "1" +
                                        repeat(")", 200))),
                 ParseError);
    EXPECT_THROW(parseProgram(rzProgram(repeat("(", 200) + "1" +
                                        repeat("+1)", 200))),
                 ParseError);
}

TEST(ParserDepthTest, ExpressionsAtTheLimitParseAndEvaluate)
{
    // A sum of kMaxExprDepth terms has depth exactly kMaxExprDepth.
    const auto sum =
        parseProgram(rzProgram("1" + repeat("+1", kMaxExprDepth - 1)));
    const auto &call = std::get<GateCall>(sum.statements[1]);
    EXPECT_DOUBLE_EQ(evaluateExpr(call.params[0], {}),
                     static_cast<double>(kMaxExprDepth));

    // Each parenthesis adds a level on top of the literal's own.
    const std::size_t parens = kMaxExprDepth - 1;
    EXPECT_NO_THROW(parseProgram(
        rzProgram(repeat("(", parens) + "1" + repeat(")", parens))));
    EXPECT_THROW(parseProgram(rzProgram(repeat("(", parens + 1) + "1" +
                                        repeat(")", parens + 1))),
                 ParseError);
}

} // namespace
} // namespace powermove::qasm

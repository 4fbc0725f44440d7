/**
 * @file
 * Tests for the OpenQASM parser: the library's statement records and
 * syntax errors, and the syntax-tree shape of the reference parser kept
 * in tests/oracles/ as the differential oracle.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <string>

#include "common/error.hpp"
#include "oracles/reference_qasm_parser.hpp"
#include "qasm/converter.hpp"
#include "qasm/parser.hpp"

namespace powermove::qasm {
namespace {

Program
parse(std::string_view source)
{
    Program program;
    parseProgram(source, program);
    return program;
}

std::string_view
nameOf(const Program &program, std::uint32_t id)
{
    return program.names[id].text;
}

TEST(ParserTest, StatementRecords)
{
    const auto program = parse(
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\n"
        "cz q[0],q[2];\nrz(pi/4) q;\nmeasure q[1] -> c[1];\nbarrier q;\n");
    ASSERT_EQ(program.includes.size(), 1u);
    EXPECT_EQ(program.includes[0], "qelib1.inc");
    // The creg declares nothing the lowering needs.
    ASSERT_EQ(program.statements.size(), 5u);

    const Statement &qreg = program.statements[0];
    EXPECT_EQ(qreg.kind, Statement::Qreg);
    EXPECT_EQ(nameOf(program, program.args[qreg.first_arg].name), "q");
    EXPECT_EQ(program.args[qreg.first_arg].index, 3u);

    const Statement &cz = program.statements[1];
    EXPECT_EQ(cz.kind, Statement::Call);
    EXPECT_EQ(nameOf(program, cz.name), "cz");
    EXPECT_EQ(program.names[cz.name].builtin, Builtin::Cz);
    EXPECT_EQ(cz.line, 5u);
    EXPECT_EQ(cz.column, 1u);
    ASSERT_EQ(cz.num_args, 2u);
    const QuantumArg &target = program.args[cz.first_arg + 1];
    EXPECT_TRUE(target.indexed);
    EXPECT_EQ(target.index, 2u);
    EXPECT_EQ(target.column, 9u);
    // Names are interned: both arguments name the same register.
    EXPECT_EQ(program.args[cz.first_arg].name, target.name);

    const Statement &rz = program.statements[2];
    ASSERT_EQ(rz.num_params, 1u);
    EXPECT_DOUBLE_EQ(program.params[rz.first_param], std::numbers::pi / 4);
    EXPECT_FALSE(program.args[rz.first_arg].indexed);

    EXPECT_EQ(program.statements[3].kind, Statement::Measure);
    EXPECT_EQ(program.args[program.statements[3].first_arg].index, 1u);
    EXPECT_EQ(program.statements[4].kind, Statement::Barrier);
}

TEST(ParserTest, GateBodiesResolveFormals)
{
    const auto program =
        parse("gate g(theta, phi) a, b { rz(phi/2) b; cz a, c; barrier a; }");
    ASSERT_EQ(program.gates.size(), 1u);
    const GateDecl &decl = program.gates[0];
    EXPECT_EQ(nameOf(program, decl.name), "g");
    ASSERT_EQ(decl.body.size(), 3u);
    EXPECT_EQ(decl.body[2].name, BodyCall::kBarrier);

    const BodyCall &rz = decl.body[0];
    EXPECT_EQ(rz.num_params, 1u);
    const ExprOp *pc = decl.code.data() + rz.code;
    const double bindings[] = {0.0, 3.0};
    EXPECT_DOUBLE_EQ(evaluate(pc, bindings, program.names), 1.5);
    EXPECT_EQ(decl.args[rz.first_arg].index, 1u); // b

    // An undeclared body qubit is kept for the lowering to reject.
    EXPECT_EQ(decl.args[decl.body[1].first_arg + 1].index,
              GateDecl::kUnknownQubit);
}

TEST(ParserTest, UnboundParametersAreDeferred)
{
    // The error surfaces when the lowering reaches the call, at 0:0.
    const auto program = parse("qreg q[1]; rz(theta/2) q[0];");
    ASSERT_EQ(program.errors.size(), 1u);
    EXPECT_EQ(program.statements[1].error, 1u);
    EXPECT_NE(std::string(program.errors[0].what()).find("'theta'"),
              std::string::npos);
}

TEST(ReferenceParserTest, HeaderAndIncludes)
{
    const auto program = reference::parseProgram(
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n");
    EXPECT_EQ(program.version, "2.0");
    ASSERT_EQ(program.includes.size(), 1u);
    EXPECT_EQ(program.includes[0], "qelib1.inc");
    ASSERT_EQ(program.statements.size(), 1u);
    const auto &reg = std::get<reference::RegDecl>(program.statements[0]);
    EXPECT_EQ(reg.name, "q");
    EXPECT_EQ(reg.size, 3u);
    EXPECT_TRUE(reg.quantum);
}

TEST(ReferenceParserTest, HeaderIsOptional)
{
    const auto program = reference::parseProgram("qreg q[1];\nh q[0];\n");
    EXPECT_EQ(program.statements.size(), 2u);
}

TEST(ReferenceParserTest, CregDeclaration)
{
    const auto program = reference::parseProgram("qreg q[2]; creg c[2];");
    const auto &creg = std::get<reference::RegDecl>(program.statements[1]);
    EXPECT_FALSE(creg.quantum);
    EXPECT_EQ(creg.name, "c");
}

TEST(ReferenceParserTest, GateCallWithIndexedArgs)
{
    const auto program = reference::parseProgram("qreg q[4]; cz q[0],q[3];");
    const auto &call = std::get<reference::GateCall>(program.statements[1]);
    EXPECT_EQ(call.name, "cz");
    ASSERT_EQ(call.args.size(), 2u);
    EXPECT_EQ(call.args[0].reg, "q");
    EXPECT_EQ(*call.args[0].index, 0u);
    EXPECT_EQ(*call.args[1].index, 3u);
}

TEST(ReferenceParserTest, GateCallWithBroadcastArg)
{
    const auto program = reference::parseProgram("qreg q[4]; h q;");
    const auto &call = std::get<reference::GateCall>(program.statements[1]);
    EXPECT_FALSE(call.args[0].index.has_value());
}

TEST(ReferenceParserTest, ParameterExpressions)
{
    const auto program =
        reference::parseProgram("qreg q[1]; rz(pi/4) q[0]; rx(-2*pi) q[0]; "
                     "ry(sin(pi/2)+3^2) q[0];");
    const auto &rz = std::get<reference::GateCall>(program.statements[1]);
    EXPECT_NEAR(reference::evaluateExpr(rz.params[0], {}), std::numbers::pi / 4, 1e-12);
    const auto &rx = std::get<reference::GateCall>(program.statements[2]);
    EXPECT_NEAR(reference::evaluateExpr(rx.params[0], {}), -2 * std::numbers::pi, 1e-12);
    const auto &ry = std::get<reference::GateCall>(program.statements[3]);
    EXPECT_NEAR(reference::evaluateExpr(ry.params[0], {}), 1.0 + 9.0, 1e-12);
}

TEST(ReferenceParserTest, PowerIsRightAssociative)
{
    const auto program = reference::parseProgram("qreg q[1]; rz(2^3^2) q[0];");
    const auto &call = std::get<reference::GateCall>(program.statements[1]);
    EXPECT_DOUBLE_EQ(reference::evaluateExpr(call.params[0], {}), 512.0);
}

TEST(ReferenceParserTest, ParameterBindings)
{
    const auto program = reference::parseProgram("qreg q[1]; rz(theta/2) q[0];");
    const auto &call = std::get<reference::GateCall>(program.statements[1]);
    EXPECT_DOUBLE_EQ(reference::evaluateExpr(call.params[0], {{"theta", 3.0}}), 1.5);
    EXPECT_THROW(reference::evaluateExpr(call.params[0], {}), ParseError);
}

TEST(ReferenceParserTest, GateDeclaration)
{
    const auto program = reference::parseProgram(
        "qreg q[2];\n"
        "gate bell a,b { h a; cx a,b; }\n"
        "bell q[0],q[1];\n");
    const auto &decl = std::get<reference::GateDecl>(program.statements[1]);
    EXPECT_EQ(decl.name, "bell");
    EXPECT_TRUE(decl.params.empty());
    EXPECT_EQ(decl.qubits, (std::vector<std::string>{"a", "b"}));
    ASSERT_EQ(decl.body.size(), 2u);
    EXPECT_EQ(decl.body[0].name, "h");
    EXPECT_EQ(decl.body[1].name, "cx");
}

TEST(ReferenceParserTest, ParameterizedGateDeclaration)
{
    const auto program = reference::parseProgram(
        "qreg q[1];\n"
        "gate phase(lambda) a { rz(lambda) a; }\n"
        "phase(pi) q[0];\n");
    const auto &decl = std::get<reference::GateDecl>(program.statements[1]);
    EXPECT_EQ(decl.params, (std::vector<std::string>{"lambda"}));
}

TEST(ReferenceParserTest, MeasureStatement)
{
    const auto program =
        reference::parseProgram("qreg q[2]; creg c[2]; measure q[1] -> c[1];");
    const auto &measure = std::get<reference::MeasureStmt>(program.statements[2]);
    EXPECT_EQ(measure.source.reg, "q");
    EXPECT_EQ(*measure.source.index, 1u);
    EXPECT_EQ(measure.target_reg, "c");
}

TEST(ReferenceParserTest, MeasureWholeRegister)
{
    const auto program =
        reference::parseProgram("qreg q[2]; creg c[2]; measure q -> c;");
    const auto &measure = std::get<reference::MeasureStmt>(program.statements[2]);
    EXPECT_FALSE(measure.source.index.has_value());
}

TEST(ReferenceParserTest, BarrierStatement)
{
    const auto program = reference::parseProgram("qreg q[3]; barrier q[0],q[2];");
    const auto &barrier = std::get<reference::BarrierStmt>(program.statements[1]);
    EXPECT_EQ(barrier.args.size(), 2u);
}

TEST(ParserTest, ResetRejectedWithClearMessage)
{
    try {
        parse("qreg q[1]; reset q[0];");
        FAIL() << "expected ParseError";
    } catch (const ParseError &error) {
        EXPECT_NE(std::string(error.what()).find("reset"),
                  std::string::npos);
    }
}

TEST(ParserTest, IfRejected)
{
    EXPECT_THROW(parse("qreg q[1]; creg c[1]; if (c==1) x q[0];"),
                 ParseError);
}

TEST(ParserTest, SyntaxErrorsCarryPositions)
{
    try {
        parse("qreg q[2];\ncz q[0] q[1];"); // missing comma
        FAIL() << "expected ParseError";
    } catch (const ParseError &error) {
        EXPECT_EQ(error.line(), 2u);
    }
}

TEST(ParserTest, ZeroSizeRegisterRejected)
{
    EXPECT_THROW(parse("qreg q[0];"), ParseError);
}

TEST(ParserTest, MissingSemicolonRejected)
{
    EXPECT_THROW(parse("qreg q[2]"), ParseError);
    EXPECT_THROW(parse("qreg q[2]; h q[0]"), ParseError);
}

/** The ParseError @p source raises, as "line:column message". */
std::string
syntaxError(std::string_view source)
{
    try {
        parse(source);
    } catch (const ParseError &error) {
        return std::to_string(error.line()) + ":" +
               std::to_string(error.column()) + " " + error.what();
    }
    return "no error";
}

TEST(ParserTest, EndOfInputReportsTheLastTokenPosition)
{
    EXPECT_EQ(syntaxError("qreg q[2]"),
              "1:9 parse error at 1:9: expected ';' after register "
              "declaration, found end of input");
}

// Regression: a barrier in a gate body with no ';' after it spun the
// parser forever at the end of input.
TEST(ParserTest, UnterminatedBodyBarrierRejected)
{
    EXPECT_EQ(syntaxError("qreg q[2];\ngate g a { barrier a"),
              "2:20 parse error at 2:20: expected ';' after barrier, found "
              "end of input");
}

// Regression: integer literals went through a double and static_cast,
// undefined past 2^64 (an index of 2^64 + 1 addressed q[0]).
TEST(ParserTest, IntegerLiteralsAreExact)
{
    EXPECT_EQ(syntaxError("qreg q[2]; h q[18446744073709551617];"),
              "1:16 parse error at 1:16: integer literal out of range");
    EXPECT_EQ(syntaxError("qreg q[100000000000000000000000];"),
              "1:8 parse error at 1:8: integer literal out of range");
    const auto program = parse("qreg q[18446744073709551615];");
    EXPECT_EQ(program.args[0].index, 18446744073709551615u);
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
        parse(rzProgram(repeat("(", 5000) + "1" + repeat(")", 5000)));
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
    EXPECT_THROW(parse(rzProgram(repeat("-", over) + "1")),
                 ParseError);
    EXPECT_THROW(parse(rzProgram(repeat("2^", over) + "1")),
                 ParseError);
    EXPECT_THROW(parse(rzProgram(repeat("sin(", over) + "1" +
                                        repeat(")", over))),
                 ParseError);
    // A left-leaning chain builds one tree level per operator without
    // any recursion in the parser; its depth is still bounded.
    EXPECT_THROW(parse(rzProgram("1" + repeat("+1", over))),
                 ParseError);
    EXPECT_THROW(parse(rzProgram("1" + repeat("*1", over))),
                 ParseError);
    // Chains inside nested groups add up: 200 levels of parentheses each
    // holding a 2-term sum would be 400 deep.
    EXPECT_THROW(parse(rzProgram(repeat("(1+", 200) + "1" +
                                        repeat(")", 200))),
                 ParseError);
    EXPECT_THROW(parse(rzProgram(repeat("(", 200) + "1" +
                                        repeat("+1)", 200))),
                 ParseError);
}

TEST(ParserDepthTest, ExpressionsAtTheLimitParseAndEvaluate)
{
    // A sum of kMaxExprDepth terms has depth exactly kMaxExprDepth.
    const auto sum =
        loadQasm(rzProgram("1" + repeat("+1", kMaxExprDepth - 1)));
    const auto &layer = std::get<OneQLayer>(sum.circuit.moments().front());
    EXPECT_DOUBLE_EQ(layer.gates[0].angle, static_cast<double>(kMaxExprDepth));

    // Each parenthesis adds a level on top of the literal's own.
    const std::size_t parens = kMaxExprDepth - 1;
    EXPECT_NO_THROW(parse(
        rzProgram(repeat("(", parens) + "1" + repeat(")", parens))));
    EXPECT_THROW(parse(rzProgram(repeat("(", parens + 1) + "1" +
                                        repeat(")", parens + 1))),
                 ParseError);
}

} // namespace
} // namespace powermove::qasm

/**
 * @file
 * Differential oracle: the OpenQASM 2.0 abstract syntax tree and its
 * recursive-descent parser, in their original form.
 *
 * Grammar support: the OPENQASM header, include directives (recorded,
 * with qelib1.inc's standard gates provided natively), qreg/creg
 * declarations, gate definitions with parameter lists, gate calls with
 * parameter expressions (+ - * / ^, unary minus, pi, and the functions
 * sin/cos/tan/exp/ln/sqrt), register broadcast arguments, measure and
 * barrier. `reset` and `if` are rejected with a clear diagnostic: they
 * have no meaning for a unitary-circuit compiler. Parameter expressions
 * deeper than kMaxExprDepth are rejected too, so hostile nesting is a
 * ParseError rather than a stack overflow.
 */

#ifndef POWERMOVE_TESTS_ORACLES_REFERENCE_QASM_PARSER_HPP
#define POWERMOVE_TESTS_ORACLES_REFERENCE_QASM_PARSER_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace powermove::qasm::reference {

/** Parameter-expression node kinds. */
enum class ExprKind : std::uint8_t
{
    Number,
    Pi,
    Parameter, // formal parameter of a gate body
    Unary,     // negation
    Binary,    // + - * / ^
    Call,      // sin cos tan exp ln sqrt
};

/** A parameter expression (angles etc.). */
struct Expr
{
    ExprKind kind = ExprKind::Number;
    double number = 0.0;          // Number
    std::string name;             // Parameter / Call
    char op = '+';                // Binary
    std::vector<Expr> children;   // Unary(1) / Binary(2) / Call(1)
};

/** A quantum argument: register name plus optional element index. */
struct QuantumArg
{
    std::string reg;
    std::optional<std::size_t> index; // nullopt = whole-register broadcast
    std::size_t line = 0;
    std::size_t column = 0;
};

/** qreg / creg declaration. */
struct RegDecl
{
    std::string name;
    std::size_t size = 0;
    bool quantum = true;
};

/** An invocation of a builtin or user-defined gate. */
struct GateCall
{
    std::string name;
    std::vector<Expr> params;
    std::vector<QuantumArg> args;
    std::size_t line = 0;
    std::size_t column = 0;
};

/** A user gate definition (body restricted to gate calls and barriers). */
struct GateDecl
{
    std::string name;
    std::vector<std::string> params;
    std::vector<std::string> qubits;
    std::vector<GateCall> body; // "barrier" encoded as a call named barrier
};

/** measure src -> dst. */
struct MeasureStmt
{
    QuantumArg source;
    std::string target_reg;
};

/** barrier over arguments (arguments are informational only). */
struct BarrierStmt
{
    std::vector<QuantumArg> args;
};

/** Any top-level statement. */
using Statement =
    std::variant<RegDecl, GateDecl, GateCall, MeasureStmt, BarrierStmt>;

/** A parsed OpenQASM 2.0 program. */
struct Program
{
    std::string version = "2.0";
    std::vector<std::string> includes;
    std::vector<Statement> statements;
};

/**
 * Deepest parameter expression the parser accepts. Depth is the height
 * of the parse tree: every parenthesis, unary minus, '^', function call
 * and binary operator adds one level, so `(1)` has depth 2 and a sum of
 * k terms has depth k.
 */
inline constexpr std::size_t kMaxExprDepth = 256;

/** Parses a full OpenQASM 2.0 source buffer; throws ParseError. */
Program parseProgram(std::string_view source);

/** Evaluates a parameter expression against formal-parameter bindings. */
double evaluateExpr(const Expr &expr,
                    const std::vector<std::pair<std::string, double>> &bindings);

} // namespace powermove::qasm::reference

#endif // POWERMOVE_TESTS_ORACLES_REFERENCE_QASM_PARSER_HPP

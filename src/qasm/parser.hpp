/**
 * @file
 * Recursive-descent parser for the OpenQASM 2.0 subset.
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

#ifndef POWERMOVE_QASM_PARSER_HPP
#define POWERMOVE_QASM_PARSER_HPP

#include <cstddef>
#include <string_view>

#include "qasm/ast.hpp"

namespace powermove::qasm {

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

} // namespace powermove::qasm

#endif // POWERMOVE_QASM_PARSER_HPP

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
 *
 * The parser builds no syntax tree for the program's top level. Names
 * are interned to small ids, and each statement becomes a flat record
 * (a gate call keeps its gate id, its evaluated parameters and its
 * (register id, index) arguments) that the converter lowers once the
 * whole file has parsed, so every syntax error is raised before any
 * semantic one. Only `gate` bodies keep a tree-like form: their
 * parameter expressions are compiled to postfix code and evaluated at
 * each expansion. Register sizes and qubit indices are exact 64-bit
 * integers; a literal beyond that range is a ParseError.
 */

#ifndef POWERMOVE_QASM_PARSER_HPP
#define POWERMOVE_QASM_PARSER_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace powermove::qasm {

/**
 * Deepest parameter expression the parser accepts. Depth is the height
 * of the parse tree: every parenthesis, unary minus, '^', function call
 * and binary operator adds one level, so `(1)` has depth 2 and a sum of
 * k terms has depth k.
 */
inline constexpr std::size_t kMaxExprDepth = 256;

/** The builtin gate a name denotes, unless a `gate` definition shadows it. */
enum class Builtin : std::uint8_t
{
    None,
    H, X, Y, Z, S, Sdg, T, Tdg, // fixed 1Q gates, in OneQKind order
    Rx, Ry, Rz,                 // rotations, in OneQKind order
    Id, U1, U2, U3, Cz, Cx, Cp, Rzz, Swap, Ccx,
};

/** An interned identifier: register, gate, parameter or function name. */
struct Name
{
    std::string_view text;
    Builtin builtin = Builtin::None;
};

/** One step of a postfix parameter expression. */
struct ExprOp
{
    enum Code : std::uint8_t
    {
        Number, Pi, Param, Unbound, Neg, Add, Sub, Mul, Div, Pow,
        Sin, Cos, Tan, Exp, Ln, Sqrt, UnknownCall,
        End, // closes one expression
    };
    Code code = End;
    std::uint32_t index = 0; // Param: formal index; Unbound/UnknownCall: name id
    double number = 0.0;
};

/**
 * Evaluates the expression starting at @p pc against the formal
 * parameter values @p bindings, and leaves @p pc past its End. Throws
 * ParseError (at 0:0) on an unbound parameter or an unknown function,
 * the first one in evaluation order.
 */
double evaluate(const ExprOp *&pc, std::span<const double> bindings,
                const std::vector<Name> &names);

/** A qubit argument: a register (or gate-body qubit) id and an index. */
struct QuantumArg
{
    std::uint32_t name = 0;
    bool indexed = false;    // false: whole-register broadcast
    std::uint64_t index = 0; // qreg: the size; gate body: the formal index
    std::uint32_t line = 0;
    std::uint32_t column = 0;
};

/** One top-level statement; ranges index the Program's pools. */
struct Statement
{
    enum Kind : std::uint8_t { Call, Measure, Barrier, Qreg, GateDef };
    Kind kind = Barrier;
    std::uint32_t name = 0; // Call: gate id; Qreg: unused; GateDef: gate index
    std::uint32_t first_param = 0, num_params = 0;
    std::uint32_t first_arg = 0, num_args = 0; // Qreg/Measure: one arg
    std::uint32_t line = 0, column = 0;
    /** 1 + index into Program::errors of a deferred evaluation error. */
    std::uint32_t error = 0;
};

/** A call inside a gate body; a `barrier` has name kBarrier. */
struct BodyCall
{
    static constexpr std::uint32_t kBarrier = ~std::uint32_t{0};
    std::uint32_t name = kBarrier;
    std::uint32_t code = 0, num_params = 0; // params: End-terminated in code
    std::uint32_t first_arg = 0, num_args = 0;
    std::uint32_t line = 0, column = 0;
};

/** A `gate` definition; arguments resolve to formal indices at parse time. */
struct GateDecl
{
    /** Formal index of an argument the gate does not declare. */
    static constexpr std::uint64_t kUnknownQubit = ~std::uint64_t{0};
    std::uint32_t name = 0;
    std::vector<std::uint32_t> params, qubits; // name ids
    std::vector<BodyCall> body;
    std::vector<ExprOp> code;
    std::vector<QuantumArg> args;
};

/** A parsed program in lowering order, with the pools it indexes. */
struct Program
{
    std::vector<Name> names;
    /** Open-addressing index of names: 1 + id, or 0 for an empty slot. */
    std::vector<std::uint32_t> slots;
    std::vector<Statement> statements;
    std::vector<QuantumArg> args;
    std::vector<double> params;
    std::vector<GateDecl> gates;
    std::vector<ParseError> errors;
    /** Include paths of the source parsed last, in order. */
    std::vector<std::string_view> includes;
};

/**
 * Parses @p source, which must outlive @p program, appending its
 * statements to @p program; throws ParseError on a syntax error.
 */
void parseProgram(std::string_view source, Program &program);

} // namespace powermove::qasm

#endif // POWERMOVE_QASM_PARSER_HPP

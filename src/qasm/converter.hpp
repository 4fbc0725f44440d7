/**
 * @file
 * Loading OpenQASM 2.0 into the {1Q, CZ} circuit IR.
 *
 * The converter lowers the parser's statement records (qasm/parser.hpp)
 * once the whole file has parsed: a declaration pass first, so every
 * call sees every declaration, then the statements in order. Standard
 * qelib1 gates are provided natively; user gate definitions are expanded
 * recursively with parameter substitution. Multi-qubit gates are
 * decomposed into CZ-basis sequences:
 *
 *   cx c,t   -> h t; cz c,t; h t
 *   cp/cu1   -> rz halves + two cx (full decomposition, unlike the
 *               benchmark generators' one-episode convention)
 *   rzz      -> cx; rz; cx
 *   swap     -> three cx
 *   ccx      -> the standard six-CX + T decomposition
 *
 * `barrier` closes the current commutable CZ block; `measure` targets
 * are recorded but produce no operations (the compiler handles unitary
 * circuits; measurement happens after execution). The original
 * AST-based front end is kept in tests/oracles/reference_qasm_* as the
 * differential oracle of this one.
 */

#ifndef POWERMOVE_QASM_CONVERTER_HPP
#define POWERMOVE_QASM_CONVERTER_HPP

#include <string>
#include <string_view>
#include <vector>

#include "circuit/circuit.hpp"

namespace powermove::qasm {

/** Result of lowering a QASM program. */
struct ConvertResult
{
    Circuit circuit;
    /** Qubits named in measure statements, in program order. */
    std::vector<QubitId> measured;
};

/**
 * Parses and lowers a source buffer. Throws ParseError on a syntax or
 * semantic error (every syntax error first), ConfigError if the circuit
 * rejects a gate.
 */
ConvertResult loadQasm(std::string_view source,
                       std::string circuit_name = "qasm");

/**
 * Parses and lowers a file on disk. Non-standard includes resolve
 * relative to the including file, and their statements go ahead of the
 * including file's own.
 */
ConvertResult loadQasmFile(const std::string &path);

} // namespace powermove::qasm

#endif // POWERMOVE_QASM_CONVERTER_HPP

/**
 * @file
 * Differential oracle: the lowering of parsed OpenQASM 2.0 programs to
 * the {1Q, CZ} circuit IR, in its original two-pass form over the AST.
 *
 * Standard qelib1 gates are provided natively; user gate definitions are
 * expanded recursively with parameter substitution. Multi-qubit gates
 * are decomposed into CZ-basis sequences:
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
 * circuits; measurement happens after execution).
 */

#ifndef POWERMOVE_TESTS_ORACLES_REFERENCE_QASM_CONVERTER_HPP
#define POWERMOVE_TESTS_ORACLES_REFERENCE_QASM_CONVERTER_HPP

#include <string>
#include <string_view>
#include <vector>

#include "circuit/circuit.hpp"
#include "oracles/reference_qasm_parser.hpp"

namespace powermove::qasm::reference {

/** Result of lowering a QASM program. */
struct ConvertResult
{
    Circuit circuit;
    /** Qubits named in measure statements, in program order. */
    std::vector<QubitId> measured;
};

/** Lowers a parsed program. Throws ParseError on semantic errors. */
ConvertResult convertProgram(const Program &program,
                             std::string circuit_name = "qasm");

/** Convenience: parse + lower a source buffer. */
ConvertResult loadQasm(std::string_view source,
                       std::string circuit_name = "qasm");

/** Convenience: parse + lower a file on disk. */
ConvertResult loadQasmFile(const std::string &path);

} // namespace powermove::qasm::reference

#endif // POWERMOVE_TESTS_ORACLES_REFERENCE_QASM_CONVERTER_HPP

#include "oracles/reference_qasm_converter.hpp"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <numbers>
#include <sstream>
#include <unordered_map>

#include "common/error.hpp"
#include "oracles/reference_qasm_parser.hpp"

namespace powermove::qasm::reference {

namespace {

constexpr std::size_t kMaxExpansionDepth = 64;

/** Quantum register table: name -> (offset, size). */
struct RegisterTable
{
    std::unordered_map<std::string, std::pair<QubitId, std::size_t>> regs;
    std::size_t total = 0;

    void
    declare(const RegDecl &decl)
    {
        if (regs.contains(decl.name))
            throw ParseError("register '" + decl.name + "' redeclared", 0, 0);
        regs.emplace(decl.name,
                     std::make_pair(static_cast<QubitId>(total), decl.size));
        total += decl.size;
    }

    QubitId
    resolve(const QuantumArg &arg) const
    {
        const auto it = regs.find(arg.reg);
        if (it == regs.end())
            throw ParseError("unknown quantum register '" + arg.reg + "'",
                             arg.line, arg.column);
        const auto [offset, size] = it->second;
        if (!arg.index)
            throw ParseError("expected an indexed qubit", arg.line,
                             arg.column);
        if (*arg.index >= size)
            throw ParseError("index " + std::to_string(*arg.index) +
                                 " out of range for '" + arg.reg + "'",
                             arg.line, arg.column);
        return offset + static_cast<QubitId>(*arg.index);
    }

    std::size_t
    sizeOf(const QuantumArg &arg) const
    {
        const auto it = regs.find(arg.reg);
        if (it == regs.end())
            throw ParseError("unknown quantum register '" + arg.reg + "'",
                             arg.line, arg.column);
        return it->second.second;
    }
};

class Lowering
{
  public:
    explicit Lowering(const Program &program, std::string name)
        : program_(program)
    {
        // Pass 1: registers and gate definitions.
        for (const auto &statement : program.statements) {
            if (const auto *reg = std::get_if<RegDecl>(&statement)) {
                if (reg->quantum)
                    qregs_.declare(*reg);
            } else if (const auto *gate = std::get_if<GateDecl>(&statement)) {
                if (gate_decls_.contains(gate->name))
                    throw ParseError("gate '" + gate->name + "' redefined", 0,
                                     0);
                gate_decls_.emplace(gate->name, gate);
            }
        }
        if (qregs_.total == 0)
            throw ParseError("program declares no quantum register", 0, 0);
        result_.circuit = Circuit(qregs_.total, std::move(name));
    }

    ConvertResult
    run()
    {
        for (const auto &statement : program_.statements) {
            if (const auto *call = std::get_if<GateCall>(&statement))
                applyTopLevelCall(*call);
            else if (const auto *measure =
                         std::get_if<MeasureStmt>(&statement))
                applyMeasure(*measure);
            else if (std::get_if<BarrierStmt>(&statement) != nullptr)
                result_.circuit.barrier();
        }
        return std::move(result_);
    }

  private:
    void
    applyMeasure(const MeasureStmt &measure)
    {
        if (measure.source.index) {
            result_.measured.push_back(qregs_.resolve(measure.source));
            return;
        }
        const std::size_t size = qregs_.sizeOf(measure.source);
        for (std::size_t i = 0; i < size; ++i) {
            QuantumArg arg = measure.source;
            arg.index = i;
            result_.measured.push_back(qregs_.resolve(arg));
        }
    }

    /** Broadcasts register arguments, then emits the gate. */
    void
    applyTopLevelCall(const GateCall &call)
    {
        std::vector<double> params;
        params.reserve(call.params.size());
        for (const auto &expr : call.params)
            params.push_back(evaluateExpr(expr, {}));

        // Determine broadcast width: all whole-register args must agree.
        std::size_t width = 1;
        bool broadcast = false;
        for (const auto &arg : call.args) {
            if (arg.index)
                continue;
            const std::size_t size = qregs_.sizeOf(arg);
            if (broadcast && size != width)
                throw ParseError(
                    "broadcast registers must have equal sizes", call.line,
                    call.column);
            broadcast = true;
            width = size;
        }

        for (std::size_t i = 0; i < width; ++i) {
            std::vector<QubitId> qubits;
            qubits.reserve(call.args.size());
            for (const auto &arg : call.args) {
                QuantumArg concrete = arg;
                if (!concrete.index)
                    concrete.index = i;
                qubits.push_back(qregs_.resolve(concrete));
            }
            emitGate(call.name, params, qubits, call.line, call.column, 0);
        }
    }

    void
    emitGate(const std::string &name, const std::vector<double> &params,
             const std::vector<QubitId> &qubits, std::size_t line,
             std::size_t column, std::size_t depth)
    {
        if (depth > kMaxExpansionDepth)
            throw ParseError("gate expansion too deep (recursive definition?)",
                             line, column);

        // User definitions may shadow builtins (qelib1-style files define
        // the standard gates textually).
        const auto decl_it = gate_decls_.find(name);
        if (decl_it != gate_decls_.end()) {
            expandUserGate(*decl_it->second, params, qubits, line, column,
                           depth);
            return;
        }
        if (emitBuiltin(name, params, qubits, line, column, depth))
            return;
        throw ParseError("unknown gate '" + name + "'", line, column);
    }

    void
    expandUserGate(const GateDecl &decl, const std::vector<double> &params,
                   const std::vector<QubitId> &qubits, std::size_t line,
                   std::size_t column, std::size_t depth)
    {
        if (params.size() != decl.params.size())
            throw ParseError("gate '" + decl.name + "' expects " +
                                 std::to_string(decl.params.size()) +
                                 " parameters",
                             line, column);
        if (qubits.size() != decl.qubits.size())
            throw ParseError("gate '" + decl.name + "' expects " +
                                 std::to_string(decl.qubits.size()) +
                                 " qubits",
                             line, column);

        std::vector<std::pair<std::string, double>> bindings;
        bindings.reserve(params.size());
        for (std::size_t i = 0; i < params.size(); ++i)
            bindings.emplace_back(decl.params[i], params[i]);

        std::unordered_map<std::string, QubitId> qubit_map;
        for (std::size_t i = 0; i < qubits.size(); ++i)
            qubit_map.emplace(decl.qubits[i], qubits[i]);

        for (const auto &body_call : decl.body) {
            if (body_call.name == "barrier") {
                result_.circuit.barrier();
                continue;
            }
            std::vector<double> body_params;
            body_params.reserve(body_call.params.size());
            for (const auto &expr : body_call.params)
                body_params.push_back(evaluateExpr(expr, bindings));

            std::vector<QubitId> body_qubits;
            body_qubits.reserve(body_call.args.size());
            for (const auto &arg : body_call.args) {
                const auto it = qubit_map.find(arg.reg);
                if (it == qubit_map.end())
                    throw ParseError("unknown gate-body qubit '" + arg.reg +
                                         "'",
                                     arg.line, arg.column);
                body_qubits.push_back(it->second);
            }
            emitGate(body_call.name, body_params, body_qubits, body_call.line,
                     body_call.column, depth + 1);
        }
    }

    // ---- builtin emission helpers ----

    void one(OneQKind kind, QubitId q, double angle = 0.0)
    {
        result_.circuit.append(OneQGate{kind, q, angle});
    }

    void cz(QubitId a, QubitId b) { result_.circuit.append(CzGate{a, b}); }

    void
    cx(QubitId control, QubitId target)
    {
        one(OneQKind::H, target);
        cz(control, target);
        one(OneQKind::H, target);
    }

    void
    checkArity(const std::string &name, const std::vector<double> &params,
               std::size_t want_params, const std::vector<QubitId> &qubits,
               std::size_t want_qubits, std::size_t line, std::size_t column)
    {
        if (params.size() != want_params || qubits.size() != want_qubits) {
            std::ostringstream os;
            os << "gate '" << name << "' expects " << want_params
               << " parameter(s) and " << want_qubits << " qubit(s)";
            throw ParseError(os.str(), line, column);
        }
    }

    bool
    emitBuiltin(const std::string &name, const std::vector<double> &params,
                const std::vector<QubitId> &qubits, std::size_t line,
                std::size_t column, std::size_t depth)
    {
        static const std::unordered_map<std::string, OneQKind> kSimple1Q = {
            {"h", OneQKind::H},     {"x", OneQKind::X},
            {"y", OneQKind::Y},     {"z", OneQKind::Z},
            {"s", OneQKind::S},     {"sdg", OneQKind::Sdg},
            {"t", OneQKind::T},     {"tdg", OneQKind::Tdg},
        };
        static const std::unordered_map<std::string, OneQKind> kRotation1Q = {
            {"rx", OneQKind::Rx},
            {"ry", OneQKind::Ry},
            {"rz", OneQKind::Rz},
        };

        if (const auto it = kSimple1Q.find(name); it != kSimple1Q.end()) {
            checkArity(name, params, 0, qubits, 1, line, column);
            one(it->second, qubits[0]);
            return true;
        }
        if (const auto it = kRotation1Q.find(name); it != kRotation1Q.end()) {
            checkArity(name, params, 1, qubits, 1, line, column);
            one(it->second, qubits[0], params[0]);
            return true;
        }
        if (name == "id") {
            checkArity(name, params, 0, qubits, 1, line, column);
            return true; // identity: no operation
        }
        if (name == "u1" || name == "p") {
            checkArity(name, params, 1, qubits, 1, line, column);
            one(OneQKind::Rz, qubits[0], params[0]);
            return true;
        }
        if (name == "u2") {
            checkArity(name, params, 2, qubits, 1, line, column);
            // u2(phi, lambda) is one hardware pulse: a generic U with
            // theta = pi/2 (angles beyond theta do not affect costing).
            one(OneQKind::U, qubits[0], std::numbers::pi / 2.0);
            return true;
        }
        if (name == "u3" || name == "u") {
            checkArity(name, params, 3, qubits, 1, line, column);
            one(OneQKind::U, qubits[0], params[0]);
            return true;
        }
        if (name == "cz") {
            checkArity(name, params, 0, qubits, 2, line, column);
            cz(qubits[0], qubits[1]);
            return true;
        }
        if (name == "cx" || name == "CX") {
            checkArity(name, params, 0, qubits, 2, line, column);
            cx(qubits[0], qubits[1]);
            return true;
        }
        if (name == "cp" || name == "cu1") {
            checkArity(name, params, 1, qubits, 2, line, column);
            const double lambda = params[0];
            one(OneQKind::Rz, qubits[0], lambda / 2.0);
            cx(qubits[0], qubits[1]);
            one(OneQKind::Rz, qubits[1], -lambda / 2.0);
            cx(qubits[0], qubits[1]);
            one(OneQKind::Rz, qubits[1], lambda / 2.0);
            return true;
        }
        if (name == "rzz") {
            checkArity(name, params, 1, qubits, 2, line, column);
            cx(qubits[0], qubits[1]);
            one(OneQKind::Rz, qubits[1], params[0]);
            cx(qubits[0], qubits[1]);
            return true;
        }
        if (name == "swap") {
            checkArity(name, params, 0, qubits, 2, line, column);
            cx(qubits[0], qubits[1]);
            cx(qubits[1], qubits[0]);
            cx(qubits[0], qubits[1]);
            return true;
        }
        if (name == "ccx") {
            checkArity(name, params, 0, qubits, 3, line, column);
            const QubitId a = qubits[0];
            const QubitId b = qubits[1];
            const QubitId c = qubits[2];
            // Standard six-CX Toffoli decomposition.
            one(OneQKind::H, c);
            cx(b, c);
            one(OneQKind::Tdg, c);
            cx(a, c);
            one(OneQKind::T, c);
            cx(b, c);
            one(OneQKind::Tdg, c);
            cx(a, c);
            one(OneQKind::T, b);
            one(OneQKind::T, c);
            one(OneQKind::H, c);
            cx(a, b);
            one(OneQKind::T, a);
            one(OneQKind::Tdg, b);
            cx(a, b);
            return true;
        }
        (void)depth;
        return false;
    }

    const Program &program_;
    RegisterTable qregs_;
    std::unordered_map<std::string, const GateDecl *> gate_decls_;
    ConvertResult result_;
};

} // namespace

ConvertResult
convertProgram(const Program &program, std::string circuit_name)
{
    return Lowering(program, std::move(circuit_name)).run();
}

ConvertResult
loadQasm(std::string_view source, std::string circuit_name)
{
    const Program program = parseProgram(source);
    return convertProgram(program, std::move(circuit_name));
}

namespace {

std::string
readFileOrFatal(const std::string &path)
{
    // A directory opens as a stream but reads as empty, so it is
    // rejected by name rather than loaded as an empty file.
    std::error_code error;
    std::ifstream in(path);
    if (!in || std::filesystem::is_directory(path, error))
        fatal("cannot open QASM file: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::string
directoryOf(const std::string &path)
{
    const auto slash = path.find_last_of('/');
    return slash == std::string::npos ? std::string{}
                                      : path.substr(0, slash + 1);
}

/** True for includes whose gates the converter provides natively. */
bool
isStandardInclude(const std::string &name)
{
    return name == "qelib1.inc" || name == "stdgates.inc";
}

/**
 * Parses @p path and recursively splices non-standard includes (resolved
 * relative to the including file) ahead of the including program's own
 * statements, so included gate definitions are visible downstream.
 */
Program
parseFileWithIncludes(const std::string &path, std::size_t depth)
{
    if (depth > 16)
        fatal("QASM include nesting too deep (cycle?): " + path);
    Program program = parseProgram(readFileOrFatal(path));

    std::vector<Statement> spliced;
    for (const auto &include : program.includes) {
        if (isStandardInclude(include))
            continue;
        Program inner =
            parseFileWithIncludes(directoryOf(path) + include, depth + 1);
        for (auto &statement : inner.statements)
            spliced.push_back(std::move(statement));
    }
    if (!spliced.empty()) {
        spliced.insert(spliced.end(),
                       std::make_move_iterator(program.statements.begin()),
                       std::make_move_iterator(program.statements.end()));
        program.statements = std::move(spliced);
    }
    return program;
}

} // namespace

ConvertResult
loadQasmFile(const std::string &path)
{
    const Program program = parseFileWithIncludes(path, 0);
    std::string name = path;
    if (const auto slash = name.find_last_of('/'); slash != std::string::npos)
        name = name.substr(slash + 1);
    return convertProgram(program, std::move(name));
}

} // namespace powermove::qasm::reference

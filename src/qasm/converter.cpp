#include "qasm/converter.hpp"

#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numbers>
#include <span>
#include <sstream>

#include "common/error.hpp"
#include "qasm/parser.hpp"

namespace powermove::qasm {

namespace {

constexpr std::size_t kMaxExpansionDepth = 64;
constexpr std::uint32_t kNoGate = ~std::uint32_t{0};

class Lowering
{
  public:
    Lowering(const Program &program, std::string name)
        : program_(program), regs_(program.names.size()),
          gate_of_(program.names.size(), kNoGate)
    {
        // Pass 1: registers and gate definitions.
        std::uint64_t total = 0;
        for (const Statement &statement : program.statements) {
            if (statement.kind == Statement::Qreg) {
                const QuantumArg &decl = program.args[statement.first_arg];
                if (regs_[decl.name].size != 0)
                    throw ParseError("register '" + text(decl.name) +
                                         "' redeclared",
                                     0, 0);
                if (decl.index > std::numeric_limits<QubitId>::max() - total)
                    throw ParseError("registers hold more than 2^32 - 1 "
                                     "qubits in total",
                                     decl.line, decl.column);
                regs_[decl.name] = Register{static_cast<QubitId>(total),
                                            decl.index};
                total += decl.index;
            } else if (statement.kind == Statement::GateDef) {
                const std::uint32_t id = program.gates[statement.name].name;
                if (gate_of_[id] != kNoGate)
                    throw ParseError("gate '" + text(id) + "' redefined", 0, 0);
                gate_of_[id] = statement.name;
            }
        }
        if (total == 0)
            throw ParseError("program declares no quantum register", 0, 0);
        result_.circuit = Circuit(total, std::move(name));
    }

    ConvertResult
    run()
    {
        for (const Statement &statement : program_.statements) {
            if (statement.kind == Statement::Call) {
                if (statement.error != 0)
                    throw program_.errors[statement.error - 1];
                applyTopLevelCall(statement);
            } else if (statement.kind == Statement::Measure) {
                applyMeasure(program_.args[statement.first_arg]);
            } else if (statement.kind == Statement::Barrier) {
                result_.circuit.barrier();
            }
        }
        return std::move(result_);
    }

  private:
    struct Register
    {
        QubitId offset = 0;
        std::uint64_t size = 0; // 0: not declared
    };

    std::string text(std::uint32_t id) const
    {
        return std::string(program_.names[id].text);
    }

    const Register &
    reg(const QuantumArg &arg) const
    {
        const Register &reg = regs_[arg.name];
        if (reg.size == 0)
            throw ParseError("unknown quantum register '" + text(arg.name) +
                                 "'",
                             arg.line, arg.column);
        return reg;
    }

    QubitId
    resolve(const QuantumArg &arg, std::uint64_t index) const
    {
        const Register &r = reg(arg);
        if (index >= r.size)
            throw ParseError("index " + std::to_string(index) +
                                 " out of range for '" + text(arg.name) + "'",
                             arg.line, arg.column);
        return r.offset + static_cast<QubitId>(index);
    }

    void
    applyMeasure(const QuantumArg &arg)
    {
        if (arg.indexed) {
            result_.measured.push_back(resolve(arg, arg.index));
            return;
        }
        const Register &r = reg(arg);
        for (std::uint64_t i = 0; i < r.size; ++i)
            result_.measured.push_back(r.offset + static_cast<QubitId>(i));
    }

    /** Broadcasts register arguments, then emits the gate. */
    void
    applyTopLevelCall(const Statement &call)
    {
        const std::span<const QuantumArg> args(
            program_.args.data() + call.first_arg, call.num_args);
        const std::span<const double> params(
            program_.params.data() + call.first_param, call.num_params);

        // Determine broadcast width: all whole-register args must agree.
        std::uint64_t width = 1;
        bool broadcast = false;
        for (const QuantumArg &arg : args) {
            if (arg.indexed)
                continue;
            const std::uint64_t size = reg(arg).size;
            if (broadcast && size != width)
                throw ParseError("broadcast registers must have equal sizes",
                                 call.line, call.column);
            broadcast = true;
            width = size;
        }

        for (std::uint64_t i = 0; i < width; ++i) {
            qubits_.clear();
            for (const QuantumArg &arg : args)
                qubits_.push_back(resolve(arg, arg.indexed ? arg.index : i));
            emitGate(call.name, params, qubits_, call.line, call.column, 0);
        }
    }

    void
    emitGate(std::uint32_t name, std::span<const double> params,
             std::span<const QubitId> qubits, std::uint32_t line,
             std::uint32_t column, std::size_t depth)
    {
        if (depth > kMaxExpansionDepth)
            throw ParseError("gate expansion too deep (recursive definition?)",
                             line, column);

        // User definitions may shadow builtins (qelib1-style files define
        // the standard gates textually).
        if (gate_of_[name] != kNoGate) {
            expandUserGate(program_.gates[gate_of_[name]], params, qubits,
                           line, column, depth);
            return;
        }
        if (!emitBuiltin(name, params, qubits, line, column))
            throw ParseError("unknown gate '" + text(name) + "'", line,
                             column);
    }

    void
    expandUserGate(const GateDecl &decl, std::span<const double> params,
                   std::span<const QubitId> qubits, std::uint32_t line,
                   std::uint32_t column, std::size_t depth)
    {
        if (params.size() != decl.params.size())
            throw ParseError("gate '" + text(decl.name) + "' expects " +
                                 std::to_string(decl.params.size()) +
                                 " parameters",
                             line, column);
        if (qubits.size() != decl.qubits.size())
            throw ParseError("gate '" + text(decl.name) + "' expects " +
                                 std::to_string(decl.qubits.size()) +
                                 " qubits",
                             line, column);

        std::vector<double> body_params;
        std::vector<QubitId> body_qubits;
        for (const BodyCall &call : decl.body) {
            if (call.name == BodyCall::kBarrier) {
                result_.circuit.barrier();
                continue;
            }
            body_params.clear();
            const ExprOp *pc = decl.code.data() + call.code;
            for (std::uint32_t p = 0; p < call.num_params; ++p)
                body_params.push_back(evaluate(pc, params, program_.names));

            body_qubits.clear();
            for (std::uint32_t a = 0; a < call.num_args; ++a) {
                const QuantumArg &arg = decl.args[call.first_arg + a];
                if (arg.index == GateDecl::kUnknownQubit)
                    throw ParseError("unknown gate-body qubit '" +
                                         text(arg.name) + "'",
                                     arg.line, arg.column);
                body_qubits.push_back(qubits[arg.index]);
            }
            emitGate(call.name, body_params, body_qubits, call.line,
                     call.column, depth + 1);
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

    bool
    emitBuiltin(std::uint32_t name, std::span<const double> params,
                std::span<const QubitId> q, std::uint32_t line,
                std::uint32_t column)
    {
        // {parameters, qubits} of each Builtin, in enum order.
        static constexpr std::uint8_t kArity[][2] = {
            {0, 0}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1},
            {0, 1}, {1, 1}, {1, 1}, {1, 1}, {0, 1}, {1, 1}, {2, 1}, {3, 1},
            {0, 2}, {0, 2}, {1, 2}, {1, 2}, {0, 2}, {0, 3}};
        const Builtin builtin = program_.names[name].builtin;
        if (builtin == Builtin::None)
            return false;
        const auto [want_params, want_qubits] =
            kArity[static_cast<std::size_t>(builtin)];
        if (params.size() != want_params || q.size() != want_qubits)
            throw ParseError("gate '" + text(name) + "' expects " +
                                 std::to_string(want_params) +
                                 " parameter(s) and " +
                                 std::to_string(want_qubits) + " qubit(s)",
                             line, column);
        const auto kind = static_cast<OneQKind>(static_cast<int>(builtin) -
                                                static_cast<int>(Builtin::H));
        switch (builtin) {
          case Builtin::Rx: case Builtin::Ry: case Builtin::Rz:
            one(kind, q[0], params[0]);
            return true;
          case Builtin::Id:
            return true; // identity: no operation
          case Builtin::U1:
            one(OneQKind::Rz, q[0], params[0]);
            return true;
          case Builtin::U2:
            // u2(phi, lambda) is one hardware pulse: a generic U with
            // theta = pi/2 (angles beyond theta do not affect costing).
            one(OneQKind::U, q[0], std::numbers::pi / 2.0);
            return true;
          case Builtin::U3:
            one(OneQKind::U, q[0], params[0]);
            return true;
          case Builtin::Cz:
            cz(q[0], q[1]);
            return true;
          case Builtin::Cx:
            cx(q[0], q[1]);
            return true;
          case Builtin::Cp: {
            const double lambda = params[0];
            one(OneQKind::Rz, q[0], lambda / 2.0);
            cx(q[0], q[1]);
            one(OneQKind::Rz, q[1], -lambda / 2.0);
            cx(q[0], q[1]);
            one(OneQKind::Rz, q[1], lambda / 2.0);
            return true;
          }
          case Builtin::Rzz:
            cx(q[0], q[1]);
            one(OneQKind::Rz, q[1], params[0]);
            cx(q[0], q[1]);
            return true;
          case Builtin::Swap:
            cx(q[0], q[1]);
            cx(q[1], q[0]);
            cx(q[0], q[1]);
            return true;
          case Builtin::Ccx:
            // Standard six-CX Toffoli decomposition.
            one(OneQKind::H, q[2]);
            cx(q[1], q[2]);
            one(OneQKind::Tdg, q[2]);
            cx(q[0], q[2]);
            one(OneQKind::T, q[2]);
            cx(q[1], q[2]);
            one(OneQKind::Tdg, q[2]);
            cx(q[0], q[2]);
            one(OneQKind::T, q[1]);
            one(OneQKind::T, q[2]);
            one(OneQKind::H, q[2]);
            cx(q[0], q[1]);
            one(OneQKind::T, q[0]);
            one(OneQKind::Tdg, q[1]);
            cx(q[0], q[1]);
            return true;
          default: // H through Tdg
            one(kind, q[0]);
            return true;
        }
    }

    const Program &program_;
    std::vector<Register> regs_;       // by name id
    std::vector<std::uint32_t> gate_of_; // name id -> index into gates
    std::vector<QubitId> qubits_;      // one top-level call's operands
    ConvertResult result_;
};

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
isStandardInclude(std::string_view name)
{
    return name == "qelib1.inc" || name == "stdgates.inc";
}

/**
 * Parses @p path into @p program (its text kept alive in @p sources),
 * then its non-standard includes, resolved relative to it; returns the
 * statements of the includes, recursively spliced, ahead of its own.
 */
std::vector<Statement>
parseFileWithIncludes(const std::string &path, std::size_t depth,
                      Program &program, std::deque<std::string> &sources)
{
    if (depth > 16)
        fatal("QASM include nesting too deep (cycle?): " + path);
    sources.push_back(readFileOrFatal(path));
    program.statements.clear();
    parseProgram(sources.back(), program);
    std::vector<Statement> own = std::move(program.statements);
    const std::vector<std::string_view> includes = program.includes;

    std::vector<Statement> spliced;
    for (const std::string_view include : includes) {
        if (isStandardInclude(include))
            continue;
        const std::vector<Statement> inner = parseFileWithIncludes(
            directoryOf(path) + std::string(include), depth + 1, program,
            sources);
        spliced.insert(spliced.end(), inner.begin(), inner.end());
    }
    spliced.insert(spliced.end(), own.begin(), own.end());
    return spliced;
}

} // namespace

ConvertResult
loadQasm(std::string_view source, std::string circuit_name)
{
    Program program;
    parseProgram(source, program);
    return Lowering(program, std::move(circuit_name)).run();
}

ConvertResult
loadQasmFile(const std::string &path)
{
    Program program;
    std::deque<std::string> sources; // the names' text lives here
    program.statements = parseFileWithIncludes(path, 0, program, sources);
    std::string name = path;
    if (const auto slash = name.find_last_of('/'); slash != std::string::npos)
        name = name.substr(slash + 1);
    return Lowering(program, std::move(name)).run();
}

} // namespace powermove::qasm

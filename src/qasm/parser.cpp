#include "qasm/parser.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <numbers>
#include <string>
#include <utility>

#include "qasm/lexer.hpp"

namespace powermove::qasm {

namespace {

/** The value @p name maps to in @p table, or @p none. */
template <typename T, std::size_t N>
T
lookup(const std::pair<std::string_view, T> (&table)[N], std::string_view name,
       T none)
{
    for (const auto &[text, value] : table) {
        if (text == name)
            return value;
    }
    return none;
}

constexpr std::pair<std::string_view, Builtin> kBuiltins[] = {
    {"h", Builtin::H},    {"x", Builtin::X},     {"y", Builtin::Y},
    {"z", Builtin::Z},    {"s", Builtin::S},     {"sdg", Builtin::Sdg},
    {"t", Builtin::T},    {"tdg", Builtin::Tdg}, {"rx", Builtin::Rx},
    {"ry", Builtin::Ry},  {"rz", Builtin::Rz},   {"id", Builtin::Id},
    {"u1", Builtin::U1},  {"p", Builtin::U1},    {"u2", Builtin::U2},
    {"u3", Builtin::U3},  {"u", Builtin::U3},    {"cz", Builtin::Cz},
    {"cx", Builtin::Cx},  {"CX", Builtin::Cx},   {"cp", Builtin::Cp},
    {"cu1", Builtin::Cp}, {"rzz", Builtin::Rzz}, {"swap", Builtin::Swap},
    {"ccx", Builtin::Ccx}};

constexpr std::pair<std::string_view, ExprOp::Code> kFunctions[] = {
    {"sin", ExprOp::Sin}, {"cos", ExprOp::Cos}, {"tan", ExprOp::Tan},
    {"exp", ExprOp::Exp}, {"ln", ExprOp::Ln},   {"sqrt", ExprOp::Sqrt}};

/** Index of the first @p id in @p formals, or @p none. */
std::uint64_t
formalIndex(const std::vector<std::uint32_t> &formals, std::uint32_t id,
            std::uint64_t none)
{
    const auto it = std::find(formals.begin(), formals.end(), id);
    return it == formals.end() ? none : static_cast<std::uint64_t>(
                                            it - formals.begin());
}

class Parser
{
  public:
    Parser(std::string_view source, Program &program)
        : lexer_(source), program_(program)
    {
        lexer_.next(current_);
    }

    void
    run()
    {
        program_.includes.clear();
        // The OPENQASM header is conventionally required; accept programs
        // without it for robustness.
        if (match(TokenKind::KwOpenQasm)) {
            expect(TokenKind::Real, "after OPENQASM");
            expect(TokenKind::Semicolon, "after the OPENQASM header");
        }
        while (match(TokenKind::KwInclude))
            parseInclude();
        while (!check(TokenKind::EndOfFile))
            parseStatement();
    }

  private:
    const Token &peek() const { return current_; }

    /** Consumes the current token; EndOfFile is never consumed. */
    Token
    advance()
    {
        const Token consumed = current_;
        if (!check(TokenKind::EndOfFile))
            lexer_.next(current_);
        return consumed;
    }

    bool check(TokenKind kind) const { return peek().kind == kind; }

    bool
    match(TokenKind kind)
    {
        if (!check(kind))
            return false;
        advance();
        return true;
    }

    Token
    expect(TokenKind kind, const char *context)
    {
        if (!check(kind)) [[unlikely]]
            unexpected(kind, context);
        return advance();
    }

    [[noreturn, gnu::cold, gnu::noinline]] void
    unexpected(TokenKind kind, const char *context) const
    {
        errorHere(std::string("expected ") + tokenKindName(kind) + " " +
                  context + ", found " + tokenKindName(peek().kind));
    }

    [[noreturn]] void
    errorHere(const std::string &message) const
    {
        throw ParseError(message, peek().line, peek().column);
    }

    /** The id of @p text, a new one if it is not yet a name. */
    std::uint32_t
    intern(std::string_view text)
    {
        std::vector<Name> &names = program_.names;
        if (2 * names.size() >= program_.slots.size()) { // grow, re-index
            program_.slots.assign(
                std::max<std::size_t>(64, 2 * program_.slots.size()), 0);
            for (std::uint32_t id = 0; id < names.size(); ++id)
                *slotOf(names[id].text) = id + 1;
        }
        std::uint32_t &slot = *slotOf(text);
        if (slot == 0) {
            names.push_back(Name{text, lookup(kBuiltins, text, Builtin::None)});
            slot = static_cast<std::uint32_t>(names.size());
        }
        return slot - 1;
    }

    /** The slot holding @p text, or the empty slot where it belongs. */
    std::uint32_t *
    slotOf(std::string_view text)
    {
        std::uint64_t h = text.size();
        for (const char c : text)
            h = h * 31 + static_cast<unsigned char>(c);
        std::vector<std::uint32_t> &slots = program_.slots;
        const std::size_t mask = slots.size() - 1;
        for (std::size_t i = (h * 0x9e3779b97f4a7c15ULL) >> 32;; ++i) {
            std::uint32_t &slot = slots[i & mask];
            if (slot == 0 || program_.names[slot - 1].text == text)
                return &slot;
        }
    }

    /** The exact value of an integer literal used as a size or index. */
    static std::uint64_t
    integerValue(const Token &token)
    {
        if (token.text.size() < 16) // the lexer's double is exact
            return static_cast<std::uint64_t>(token.number);
        std::uint64_t value = 0;
        const char *last = token.text.data() + token.text.size();
        if (std::from_chars(token.text.data(), last, value).ec != std::errc{})
            throw ParseError("integer literal out of range", token.line,
                             token.column);
        return value;
    }

    void
    parseInclude()
    {
        const Token path = expect(TokenKind::String, "after include");
        expect(TokenKind::Semicolon, "after include");
        program_.includes.push_back(path.text);
    }

    void
    parseStatement()
    {
        if (match(TokenKind::KwInclude)) {
            parseInclude();
            // A late include closes the current CZ block, as it always has.
            program_.statements.push_back(Statement{.kind = Statement::Barrier});
            return;
        }
        if (check(TokenKind::KwQreg) || check(TokenKind::KwCreg))
            return parseRegDecl();
        if (check(TokenKind::KwGate))
            return parseGateDecl();
        if (check(TokenKind::KwMeasure))
            return parseMeasure();
        if (check(TokenKind::KwBarrier))
            return parseBarrier();
        if (check(TokenKind::KwReset))
            errorHere("'reset' is not supported: PowerMove compiles unitary "
                      "circuits");
        if (check(TokenKind::KwIf))
            errorHere("classically controlled gates ('if') are not supported");
        if (check(TokenKind::Identifier))
            return parseGateCall();
        errorHere(std::string("expected a statement, found ") +
                  tokenKindName(peek().kind));
    }

    void
    parseRegDecl()
    {
        const bool quantum = advance().kind == TokenKind::KwQreg;
        const Token name = expect(TokenKind::Identifier, "as register name");
        expect(TokenKind::LBracket, "in register declaration");
        const Token size = expect(TokenKind::Integer, "as register size");
        expect(TokenKind::RBracket, "in register declaration");
        expect(TokenKind::Semicolon, "after register declaration");
        QuantumArg decl{0, true, integerValue(size), size.line, size.column};
        if (decl.index == 0)
            throw ParseError("register size must be positive", size.line,
                             size.column);
        if (!quantum)
            return;
        decl.name = intern(name.text);
        program_.statements.push_back(Statement{
            .kind = Statement::Qreg,
            .first_arg = static_cast<std::uint32_t>(program_.args.size()),
            .num_args = 1});
        program_.args.push_back(decl);
    }

    void
    parseGateDecl()
    {
        advance(); // gate
        GateDecl decl;
        decl.name = intern(expect(TokenKind::Identifier, "as gate name").text);
        if (match(TokenKind::LParen)) {
            if (!check(TokenKind::RParen)) {
                do {
                    decl.params.push_back(intern(
                        expect(TokenKind::Identifier, "as gate parameter")
                            .text));
                } while (match(TokenKind::Comma));
            }
            expect(TokenKind::RParen, "after gate parameters");
        }
        do {
            decl.qubits.push_back(
                intern(expect(TokenKind::Identifier, "as gate qubit").text));
        } while (match(TokenKind::Comma));
        expect(TokenKind::LBrace, "to open the gate body");
        while (!match(TokenKind::RBrace)) {
            if (match(TokenKind::KwBarrier)) {
                while (!check(TokenKind::Semicolon) &&
                       !check(TokenKind::EndOfFile))
                    advance();
                expect(TokenKind::Semicolon, "after barrier");
                decl.body.emplace_back();
                continue;
            }
            parseGateCallBody(decl);
        }
        program_.statements.push_back(Statement{
            .kind = Statement::GateDef,
            .name = static_cast<std::uint32_t>(program_.gates.size())});
        program_.gates.push_back(std::move(decl));
    }

    /** A gate call inside a gate body (identifier args, no indices). */
    void
    parseGateCallBody(GateDecl &decl)
    {
        const Token name = expect(TokenKind::Identifier, "as gate name");
        BodyCall call;
        call.name = intern(name.text);
        call.line = name.line;
        call.column = name.column;
        call.code = static_cast<std::uint32_t>(decl.code.size());
        if (match(TokenKind::LParen)) {
            if (!check(TokenKind::RParen)) {
                code_ = &decl.code;
                formals_ = &decl.params;
                do {
                    parseExpr();
                    decl.code.push_back(ExprOp{});
                    ++call.num_params;
                } while (match(TokenKind::Comma));
            }
            expect(TokenKind::RParen, "after gate arguments");
        }
        call.first_arg = static_cast<std::uint32_t>(decl.args.size());
        do {
            const Token arg =
                expect(TokenKind::Identifier, "as gate body argument");
            QuantumArg formal{intern(arg.text), true, 0, arg.line, arg.column};
            formal.index = formalIndex(decl.qubits, formal.name,
                                       GateDecl::kUnknownQubit);
            decl.args.push_back(formal);
            ++call.num_args;
        } while (match(TokenKind::Comma));
        expect(TokenKind::Semicolon, "after gate call");
        decl.body.push_back(call);
    }

    void
    parseGateCall()
    {
        const Token name = advance();
        Statement call{.kind = Statement::Call,
                       .name = intern(name.text),
                       .line = name.line,
                       .column = name.column};
        call.first_param = static_cast<std::uint32_t>(program_.params.size());
        if (match(TokenKind::LParen)) {
            if (!check(TokenKind::RParen)) {
                code_ = &scratch_;
                formals_ = nullptr;
                do {
                    scratch_.clear();
                    parseExpr();
                    scratch_.push_back(ExprOp{});
                    program_.params.push_back(evaluateTopLevel(call));
                    ++call.num_params;
                } while (match(TokenKind::Comma));
            }
            expect(TokenKind::RParen, "after gate parameters");
        }
        call.first_arg = static_cast<std::uint32_t>(program_.args.size());
        do {
            program_.args.push_back(parseQuantumArg());
            ++call.num_args;
        } while (match(TokenKind::Comma));
        expect(TokenKind::Semicolon, "after gate call");
        program_.statements.push_back(call);
    }

    /**
     * The value of the expression in scratch_; an evaluation error is
     * kept on @p call, to be raised in statement order after the parse.
     */
    double
    evaluateTopLevel(Statement &call)
    {
        if (scratch_.size() == 2 && scratch_[0].code == ExprOp::Number)
            return scratch_[0].number;
        try {
            const ExprOp *pc = scratch_.data();
            return evaluate(pc, {}, program_.names);
        } catch (const ParseError &error) {
            if (call.error == 0) {
                program_.errors.push_back(error);
                call.error = static_cast<std::uint32_t>(program_.errors.size());
            }
            return 0.0;
        }
    }

    QuantumArg
    parseQuantumArg()
    {
        if (!check(TokenKind::Identifier))
            unexpected(TokenKind::Identifier, "as register name");
        QuantumArg arg{intern(peek().text), false, 0, peek().line,
                       peek().column};
        if (lexer_.index(arg.index)) {
            arg.indexed = true;
            lexer_.next(current_);
            return arg;
        }
        advance();
        if (match(TokenKind::LBracket)) {
            const Token index = expect(TokenKind::Integer, "as qubit index");
            expect(TokenKind::RBracket, "after qubit index");
            arg.indexed = true;
            arg.index = integerValue(index);
        }
        return arg;
    }

    void
    parseMeasure()
    {
        advance(); // measure
        const QuantumArg source = parseQuantumArg();
        expect(TokenKind::Arrow, "in measure statement");
        expect(TokenKind::Identifier, "as creg name");
        if (match(TokenKind::LBracket)) {
            expect(TokenKind::Integer, "as creg index");
            expect(TokenKind::RBracket, "after creg index");
        }
        expect(TokenKind::Semicolon, "after measure");
        program_.statements.push_back(Statement{
            .kind = Statement::Measure,
            .first_arg = static_cast<std::uint32_t>(program_.args.size()),
            .num_args = 1});
        program_.args.push_back(source);
    }

    void
    parseBarrier()
    {
        advance(); // barrier
        do {
            parseQuantumArg(); // arguments are informational only
        } while (match(TokenKind::Comma));
        expect(TokenKind::Semicolon, "after barrier");
        program_.statements.push_back(Statement{.kind = Statement::Barrier});
    }

    // ---- expression grammar: additive > multiplicative > power > unary ----
    //
    // Each parse function appends its expression's postfix code to
    // *code_ and leaves its depth in depth_: its parse-tree height, where
    // every parenthesis, unary minus, '^', call and binary operator adds
    // one level. Going deeper than kMaxExprDepth is a ParseError, checked
    // on the way down (nesting_) and when a binary chain grows, so
    // neither this descent nor evaluate's stack can overflow. A
    // ParseError abandons the parser, so the nesting count needs no
    // unwinding.

    /** Throws unless an expression @p depth levels deep is allowed. */
    void
    checkDepth(std::size_t depth, const Token &at) const
    {
        if (depth > kMaxExprDepth) {
            throw ParseError("expression nested deeper than " +
                                 std::to_string(kMaxExprDepth) + " levels",
                             at.line, at.column);
        }
    }

    /** Emits @p code, one level above its deepest operand. */
    void
    emitNode(ExprOp::Code code, std::size_t child_depth, const Token &at,
             std::uint32_t index = 0)
    {
        checkDepth(child_depth + 1, at);
        depth_ = child_depth + 1;
        code_->push_back(ExprOp{code, index, 0.0});
    }

    /** Emits the operand @p parse_rhs reads next, then binary @p code. */
    void
    binary(const Token &at, ExprOp::Code code, void (Parser::*parse_rhs)())
    {
        const std::size_t left_depth = depth_;
        (this->*parse_rhs)();
        emitNode(code, std::max(left_depth, depth_), at);
    }

    void
    parseExpr()
    {
        parseTerm();
        while (check(TokenKind::Plus) || check(TokenKind::Minus)) {
            const Token at = advance();
            binary(at, at.kind == TokenKind::Plus ? ExprOp::Add : ExprOp::Sub,
                   &Parser::parseTerm);
        }
    }

    void
    parseTerm()
    {
        parsePower();
        while (check(TokenKind::Star) || check(TokenKind::Slash)) {
            const Token at = advance();
            binary(at, at.kind == TokenKind::Star ? ExprOp::Mul : ExprOp::Div,
                   &Parser::parsePower);
        }
    }

    void
    parsePower()
    {
        parseUnary();
        if (check(TokenKind::Caret)) {
            // Right associative.
            const Token at = advance();
            checkDepth(++nesting_, at);
            binary(at, ExprOp::Pow, &Parser::parsePower);
            --nesting_;
        }
    }

    void
    parseUnary()
    {
        if (!check(TokenKind::Minus))
            return parsePrimary();
        const Token at = advance();
        checkDepth(++nesting_, at);
        parseUnary();
        --nesting_;
        emitNode(ExprOp::Neg, depth_, at);
    }

    void
    parsePrimary()
    {
        depth_ = 1;
        if (check(TokenKind::Real) || check(TokenKind::Integer)) {
            code_->push_back(ExprOp{ExprOp::Number, 0, advance().number});
            return;
        }
        if (match(TokenKind::KwPi)) {
            code_->push_back(ExprOp{ExprOp::Pi, 0, 0.0});
            return;
        }
        if (check(TokenKind::Identifier)) {
            const Token name = advance();
            if (check(TokenKind::LParen)) {
                const Token open = advance();
                checkDepth(++nesting_, open);
                parseExpr();
                expect(TokenKind::RParen, "after function argument");
                --nesting_;
                const ExprOp::Code code =
                    lookup(kFunctions, name.text, ExprOp::UnknownCall);
                emitNode(code, depth_, open,
                         code == ExprOp::UnknownCall ? intern(name.text) : 0);
                return;
            }
            const std::uint32_t id = intern(name.text);
            const std::uint64_t formal =
                formals_ ? formalIndex(*formals_, id, kUnbound) : kUnbound;
            code_->push_back(formal == kUnbound
                                 ? ExprOp{ExprOp::Unbound, id, 0.0}
                                 : ExprOp{ExprOp::Param,
                                          static_cast<std::uint32_t>(formal),
                                          0.0});
            return;
        }
        if (check(TokenKind::LParen)) {
            const Token open = advance();
            checkDepth(++nesting_, open);
            parseExpr();
            expect(TokenKind::RParen, "to close the expression");
            --nesting_;
            checkDepth(++depth_, open);
            return;
        }
        errorHere(std::string("expected an expression, found ") +
                  tokenKindName(peek().kind));
    }

    static constexpr std::uint64_t kUnbound = ~std::uint64_t{0};

    Lexer lexer_;
    Token current_; // one token of lookahead
    Program &program_;
    std::vector<ExprOp> scratch_; // a top-level parameter's code
    std::vector<ExprOp> *code_ = nullptr;
    const std::vector<std::uint32_t> *formals_ = nullptr;
    std::size_t depth_ = 0;   // depth of the expression last parsed
    std::size_t nesting_ = 0; // nested levels open on the way down
};

} // namespace

void
parseProgram(std::string_view source, Program &program)
{
    // Generated QASM spends about 20 bytes per statement, 16 per argument
    // and 64 per parameter; reserving that spares the pools' regrowth.
    program.statements.reserve(program.statements.size() + source.size() / 20);
    program.args.reserve(program.args.size() + source.size() / 16);
    program.params.reserve(program.params.size() + source.size() / 64);
    Parser(source, program).run();
}

double
evaluate(const ExprOp *&pc, std::span<const double> bindings,
         const std::vector<Name> &names)
{
    // Postfix code of a tree at most kMaxExprDepth high never holds more
    // than that many operands at once.
    double stack[kMaxExprDepth + 1];
    std::size_t top = 0;
    for (;; ++pc) {
        const double x = top > 0 ? stack[top - 1] : 0.0; // the last operand
        double *const y = top > 1 ? &stack[top - 2] : nullptr; // binary lhs
        switch (pc->code) {
          case ExprOp::Number: stack[top++] = pc->number; break;
          case ExprOp::Pi: stack[top++] = std::numbers::pi; break;
          case ExprOp::Param: stack[top++] = bindings[pc->index]; break;
          case ExprOp::Unbound:
          case ExprOp::UnknownCall:
            throw ParseError(std::string(pc->code == ExprOp::Unbound
                                             ? "unbound parameter '"
                                             : "unknown function '") +
                                 std::string(names[pc->index].text) + "'",
                             0, 0);
          case ExprOp::End: ++pc; return stack[0];
          case ExprOp::Neg: stack[top - 1] = -x; break;
          case ExprOp::Sin: stack[top - 1] = std::sin(x); break;
          case ExprOp::Cos: stack[top - 1] = std::cos(x); break;
          case ExprOp::Tan: stack[top - 1] = std::tan(x); break;
          case ExprOp::Exp: stack[top - 1] = std::exp(x); break;
          case ExprOp::Ln: stack[top - 1] = std::log(x); break;
          case ExprOp::Sqrt: stack[top - 1] = std::sqrt(x); break;
          case ExprOp::Add: *y = *y + x; --top; break;
          case ExprOp::Sub: *y = *y - x; --top; break;
          case ExprOp::Mul: *y = *y * x; --top; break;
          case ExprOp::Div: *y = *y / x; --top; break;
          case ExprOp::Pow: *y = std::pow(*y, x); --top; break;
        }
    }
}

} // namespace powermove::qasm

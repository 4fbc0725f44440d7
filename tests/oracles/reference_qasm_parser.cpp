#include "oracles/reference_qasm_parser.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "oracles/reference_qasm_lexer.hpp"

namespace powermove::qasm::reference {

namespace {

class Parser
{
  public:
    explicit Parser(std::string_view source)
        : lexer_(source), current_(lexer_.next())
    {}

    Program
    run()
    {
        Program program;
        parseHeader(program);
        while (!check(TokenKind::EndOfFile))
            program.statements.push_back(parseStatement(program));
        return program;
    }

  private:
    const Token &peek() const { return current_; }

    /** Consumes the current token; EndOfFile is never consumed. */
    Token
    advance()
    {
        if (check(TokenKind::EndOfFile))
            return current_;
        return std::exchange(current_, lexer_.next());
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
    expect(TokenKind kind, const std::string &context)
    {
        if (!check(kind)) {
            throw ParseError("expected " + tokenKindName(kind) + " " +
                                 context + ", found " +
                                 tokenKindName(peek().kind),
                             peek().line, peek().column);
        }
        return advance();
    }

    [[noreturn]] void
    errorHere(const std::string &message) const
    {
        throw ParseError(message, peek().line, peek().column);
    }

    void
    parseHeader(Program &program)
    {
        // The OPENQASM header is conventionally required; accept programs
        // without it for robustness but record the version when present.
        if (match(TokenKind::KwOpenQasm)) {
            const Token &version = expect(TokenKind::Real, "after OPENQASM");
            program.version = version.text;
            expect(TokenKind::Semicolon, "after the OPENQASM header");
        }
        while (match(TokenKind::KwInclude)) {
            const Token &path = expect(TokenKind::String, "after include");
            expect(TokenKind::Semicolon, "after include");
            program.includes.push_back(path.text);
        }
    }

    Statement
    parseStatement(Program &program)
    {
        if (match(TokenKind::KwInclude)) {
            const Token &path = expect(TokenKind::String, "after include");
            expect(TokenKind::Semicolon, "after include");
            program.includes.push_back(path.text);
            return BarrierStmt{}; // no-op placeholder
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
        errorHere("expected a statement, found " + tokenKindName(peek().kind));
    }

    Statement
    parseRegDecl()
    {
        RegDecl decl;
        decl.quantum = advance().kind == TokenKind::KwQreg;
        decl.name = expect(TokenKind::Identifier, "as register name").text;
        expect(TokenKind::LBracket, "in register declaration");
        const Token &size = expect(TokenKind::Integer, "as register size");
        expect(TokenKind::RBracket, "in register declaration");
        expect(TokenKind::Semicolon, "after register declaration");
        decl.size = static_cast<std::size_t>(size.number);
        if (decl.size == 0)
            throw ParseError("register size must be positive", size.line,
                             size.column);
        return decl;
    }

    Statement
    parseGateDecl()
    {
        advance(); // gate
        GateDecl decl;
        decl.name = expect(TokenKind::Identifier, "as gate name").text;
        if (match(TokenKind::LParen)) {
            if (!check(TokenKind::RParen)) {
                do {
                    decl.params.push_back(
                        expect(TokenKind::Identifier, "as gate parameter")
                            .text);
                } while (match(TokenKind::Comma));
            }
            expect(TokenKind::RParen, "after gate parameters");
        }
        do {
            decl.qubits.push_back(
                expect(TokenKind::Identifier, "as gate qubit").text);
        } while (match(TokenKind::Comma));
        expect(TokenKind::LBrace, "to open the gate body");
        while (!match(TokenKind::RBrace)) {
            if (match(TokenKind::KwBarrier)) {
                GateCall barrier;
                barrier.name = "barrier";
                // Stops at the end of input too: the original loop spun
                // forever on a body barrier with no ';' after it.
                while (!check(TokenKind::Semicolon) &&
                       !check(TokenKind::EndOfFile))
                    advance();
                expect(TokenKind::Semicolon, "after barrier");
                decl.body.push_back(std::move(barrier));
                continue;
            }
            decl.body.push_back(parseGateCallBody());
        }
        return decl;
    }

    /** A gate call inside a gate body (identifier args, no indices). */
    GateCall
    parseGateCallBody()
    {
        GateCall call;
        const Token &name = expect(TokenKind::Identifier, "as gate name");
        call.name = name.text;
        call.line = name.line;
        call.column = name.column;
        if (match(TokenKind::LParen)) {
            if (!check(TokenKind::RParen)) {
                do {
                    call.params.push_back(parseExpr());
                } while (match(TokenKind::Comma));
            }
            expect(TokenKind::RParen, "after gate arguments");
        }
        do {
            const Token &arg =
                expect(TokenKind::Identifier, "as gate body argument");
            call.args.push_back(
                QuantumArg{arg.text, std::nullopt, arg.line, arg.column});
        } while (match(TokenKind::Comma));
        expect(TokenKind::Semicolon, "after gate call");
        return call;
    }

    Statement
    parseGateCall()
    {
        GateCall call;
        const Token &name = advance();
        call.name = name.text;
        call.line = name.line;
        call.column = name.column;
        if (match(TokenKind::LParen)) {
            if (!check(TokenKind::RParen)) {
                do {
                    call.params.push_back(parseExpr());
                } while (match(TokenKind::Comma));
            }
            expect(TokenKind::RParen, "after gate parameters");
        }
        do {
            call.args.push_back(parseQuantumArg());
        } while (match(TokenKind::Comma));
        expect(TokenKind::Semicolon, "after gate call");
        return call;
    }

    QuantumArg
    parseQuantumArg()
    {
        const Token &reg = expect(TokenKind::Identifier, "as register name");
        QuantumArg arg{reg.text, std::nullopt, reg.line, reg.column};
        if (match(TokenKind::LBracket)) {
            const Token &index = expect(TokenKind::Integer, "as qubit index");
            expect(TokenKind::RBracket, "after qubit index");
            arg.index = static_cast<std::size_t>(index.number);
        }
        return arg;
    }

    Statement
    parseMeasure()
    {
        advance(); // measure
        MeasureStmt stmt;
        stmt.source = parseQuantumArg();
        expect(TokenKind::Arrow, "in measure statement");
        const Token &target = expect(TokenKind::Identifier, "as creg name");
        stmt.target_reg = target.text;
        if (match(TokenKind::LBracket)) {
            expect(TokenKind::Integer, "as creg index");
            expect(TokenKind::RBracket, "after creg index");
        }
        expect(TokenKind::Semicolon, "after measure");
        return stmt;
    }

    Statement
    parseBarrier()
    {
        advance(); // barrier
        BarrierStmt stmt;
        do {
            stmt.args.push_back(parseQuantumArg());
        } while (match(TokenKind::Comma));
        expect(TokenKind::Semicolon, "after barrier");
        return stmt;
    }

    // ---- expression grammar: additive > multiplicative > power > unary ----
    //
    // Each parse function leaves the depth of the expression it returns
    // in depth_: its parse-tree height, where every parenthesis, unary
    // minus, '^', call and binary operator adds one level. Going deeper
    // than kMaxExprDepth is a ParseError, checked on the way down
    // (nesting_) and when a binary chain grows, so neither this descent
    // nor any later recursive walk of the tree (evaluation, copy,
    // destruction) can exhaust the stack. A ParseError abandons the
    // parser, so the nesting count needs no unwinding.

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

    /** A node of @p kind over @p children, one level above the deepest. */
    Expr
    makeNode(ExprKind kind, char op, std::vector<Expr> children,
             std::size_t child_depth, const Token &at)
    {
        checkDepth(child_depth + 1, at);
        depth_ = child_depth + 1;
        Expr node;
        node.kind = kind;
        node.op = op;
        node.children = std::move(children);
        return node;
    }

    /**
     * Binary @p op node over @p left and the operand @p parse_rhs reads
     * next; @p at is the operator token.
     */
    Expr
    binary(const Token &at, char op, Expr left, Expr (Parser::*parse_rhs)())
    {
        const std::size_t left_depth = depth_;
        std::vector<Expr> children;
        children.reserve(2);
        children.push_back(std::move(left));
        children.push_back((this->*parse_rhs)());
        return makeNode(ExprKind::Binary, op, std::move(children),
                        std::max(left_depth, depth_), at);
    }

    Expr
    parseExpr()
    {
        Expr left = parseTerm();
        while (check(TokenKind::Plus) || check(TokenKind::Minus)) {
            const Token &at = advance();
            const char op = at.kind == TokenKind::Plus ? '+' : '-';
            left = binary(at, op, std::move(left), &Parser::parseTerm);
        }
        return left;
    }

    Expr
    parseTerm()
    {
        Expr left = parsePower();
        while (check(TokenKind::Star) || check(TokenKind::Slash)) {
            const Token &at = advance();
            const char op = at.kind == TokenKind::Star ? '*' : '/';
            left = binary(at, op, std::move(left), &Parser::parsePower);
        }
        return left;
    }

    Expr
    parsePower()
    {
        Expr base = parseUnary();
        if (check(TokenKind::Caret)) {
            // Right associative.
            const Token &at = advance();
            checkDepth(++nesting_, at);
            Expr node = binary(at, '^', std::move(base), &Parser::parsePower);
            --nesting_;
            return node;
        }
        return base;
    }

    Expr
    parseUnary()
    {
        if (check(TokenKind::Minus)) {
            const Token &at = advance();
            checkDepth(++nesting_, at);
            std::vector<Expr> children;
            children.push_back(parseUnary());
            --nesting_;
            return makeNode(ExprKind::Unary, '+', std::move(children), depth_,
                            at);
        }
        return parsePrimary();
    }

    Expr
    parsePrimary()
    {
        Expr node;
        depth_ = 1;
        if (check(TokenKind::Real) || check(TokenKind::Integer)) {
            node.kind = ExprKind::Number;
            node.number = advance().number;
            return node;
        }
        if (match(TokenKind::KwPi)) {
            node.kind = ExprKind::Pi;
            return node;
        }
        if (check(TokenKind::Identifier)) {
            const Token &name = advance();
            if (check(TokenKind::LParen)) {
                const Token &open = advance();
                checkDepth(++nesting_, open);
                std::vector<Expr> children;
                children.push_back(parseExpr());
                expect(TokenKind::RParen, "after function argument");
                --nesting_;
                node = makeNode(ExprKind::Call, '+', std::move(children),
                                depth_, open);
                node.name = name.text;
                return node;
            }
            node.kind = ExprKind::Parameter;
            node.name = name.text;
            return node;
        }
        if (check(TokenKind::LParen)) {
            const Token &open = advance();
            checkDepth(++nesting_, open);
            Expr inner = parseExpr();
            expect(TokenKind::RParen, "to close the expression");
            --nesting_;
            checkDepth(++depth_, open);
            return inner;
        }
        errorHere("expected an expression, found " +
                  tokenKindName(peek().kind));
    }

    Lexer lexer_;
    Token current_; // one token of lookahead
    std::size_t depth_ = 0;   // depth of the expression last parsed
    std::size_t nesting_ = 0; // nested levels open on the way down
};

} // namespace

Program
parseProgram(std::string_view source)
{
    return Parser(source).run();
}

double
evaluateExpr(const Expr &expr,
             const std::vector<std::pair<std::string, double>> &bindings)
{
    switch (expr.kind) {
      case ExprKind::Number:
        return expr.number;
      case ExprKind::Pi:
        return std::numbers::pi;
      case ExprKind::Parameter:
        for (const auto &[name, value] : bindings) {
            if (name == expr.name)
                return value;
        }
        throw ParseError("unbound parameter '" + expr.name + "'", 0, 0);
      case ExprKind::Unary:
        return -evaluateExpr(expr.children[0], bindings);
      case ExprKind::Binary: {
        const double lhs = evaluateExpr(expr.children[0], bindings);
        const double rhs = evaluateExpr(expr.children[1], bindings);
        switch (expr.op) {
          case '+':
            return lhs + rhs;
          case '-':
            return lhs - rhs;
          case '*':
            return lhs * rhs;
          case '/':
            return lhs / rhs;
          case '^':
            return std::pow(lhs, rhs);
          default:
            panic("unknown binary operator");
        }
      }
      case ExprKind::Call: {
        const double arg = evaluateExpr(expr.children[0], bindings);
        if (expr.name == "sin")
            return std::sin(arg);
        if (expr.name == "cos")
            return std::cos(arg);
        if (expr.name == "tan")
            return std::tan(arg);
        if (expr.name == "exp")
            return std::exp(arg);
        if (expr.name == "ln")
            return std::log(arg);
        if (expr.name == "sqrt")
            return std::sqrt(arg);
        throw ParseError("unknown function '" + expr.name + "'", 0, 0);
      }
    }
    panic("unknown expression kind");
}

} // namespace powermove::qasm::reference

/**
 * @file
 * Differential oracle: the OpenQASM 2.0 lexer in its original form.
 *
 * Each token owns a std::string copy of its text and a double value for
 * every numeric literal. Together with reference_qasm_parser.hpp and
 * reference_qasm_converter.hpp this is the front end the library's
 * qasm::loadQasm/loadQasmFile replaced; qasm_frontend_differential_test
 * holds the library to it circuit for circuit and error for error.
 */

#ifndef POWERMOVE_TESTS_ORACLES_REFERENCE_QASM_LEXER_HPP
#define POWERMOVE_TESTS_ORACLES_REFERENCE_QASM_LEXER_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace powermove::qasm::reference {

/** Token kinds of the OpenQASM 2.0 grammar subset we accept. */
enum class TokenKind : std::uint8_t
{
    Identifier,
    Real,       // 3.14, 1e-3
    Integer,    // 42
    String,     // "qelib1.inc"
    // Keywords
    KwOpenQasm, // OPENQASM
    KwInclude,
    KwQreg,
    KwCreg,
    KwGate,
    KwMeasure,
    KwBarrier,
    KwReset,
    KwIf,
    KwPi,
    // Punctuation and operators
    Semicolon,
    Comma,
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Arrow, // ->
    Plus,
    Minus,
    Star,
    Slash,
    Caret,
    EqualEqual,
    EndOfFile,
};

/** Human-readable token-kind name for diagnostics. */
std::string tokenKindName(TokenKind kind);

/** One lexed token with its source position (1-based). */
struct Token
{
    TokenKind kind = TokenKind::EndOfFile;
    std::string text;
    double number = 0.0; // value for Real/Integer
    std::size_t line = 0;
    std::size_t column = 0;
};

/**
 * Lexes a source buffer one token at a time, so the parser keeps one
 * token of lookahead instead of the whole token list (a large circuit's
 * list runs to megabytes).
 */
class Lexer
{
  public:
    explicit Lexer(std::string_view source) : source_(source) {}

    /** The next token; EndOfFile at (and after) the end of the source. */
    Token next();

  private:
    bool atEnd() const { return pos_ >= source_.size(); }
    char peek() const { return source_[pos_]; }
    char peekAt(std::size_t offset) const;
    void advance();
    Token make(TokenKind kind, std::string text) const;
    void skipWhitespaceAndComments();
    /** The token starting at the current (non-blank) position. */
    Token lexToken();
    Token identifier();
    Token number();
    Token stringLiteral();

    std::string_view source_;
    std::size_t pos_ = 0;
    std::size_t line_ = 1;
    std::size_t column_ = 1;
    std::size_t token_line_ = 1;
    std::size_t token_column_ = 1;
};

} // namespace powermove::qasm::reference

#endif // POWERMOVE_TESTS_ORACLES_REFERENCE_QASM_LEXER_HPP

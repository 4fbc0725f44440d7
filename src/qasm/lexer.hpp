/**
 * @file
 * The OpenQASM 2.0 lexer.
 *
 * Handles line comments (// ...), both integer and real literals
 * (including exponent notation), string literals for include paths, and
 * the keyword set of the OpenQASM 2.0 grammar. Tokens are views into
 * the source buffer, which must outlive them: no token allocates.
 * Unknown characters raise ParseError with a 1-based line/column
 * position.
 */

#ifndef POWERMOVE_QASM_LEXER_HPP
#define POWERMOVE_QASM_LEXER_HPP

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace powermove::qasm {

/** Token kinds of the OpenQASM 2.0 grammar subset we accept. */
enum class TokenKind : std::uint8_t
{
    Identifier, Real /* 3.14, 1e-3 */, Integer, String /* "qelib1.inc" */,
    // Keywords
    KwOpenQasm, KwInclude, KwQreg, KwCreg, KwGate, KwMeasure, KwBarrier,
    KwReset, KwIf, KwPi,
    // Punctuation and operators
    Semicolon, Comma, LParen, RParen, LBracket, RBracket, LBrace, RBrace,
    Arrow /* -> */, Plus, Minus, Star, Slash, Caret, EqualEqual,
    EndOfFile,
};

/** Human-readable token-kind name for diagnostics. */
const char *tokenKindName(TokenKind kind);

/** One lexed token with its source position (1-based). */
struct Token
{
    TokenKind kind = TokenKind::EndOfFile;
    /** The token's text in the source (a string literal's without quotes). */
    std::string_view text;
    double number = 0.0; // value for Real/Integer
    std::uint32_t line = 0;
    std::uint32_t column = 0;
};

/**
 * Lexes a source buffer one token at a time, so the parser keeps one
 * token of lookahead instead of the whole token list.
 */
class Lexer
{
  public:
    explicit Lexer(std::string_view source) : source_(source) {}

    /**
     * Overwrites @p token with the next token; EndOfFile at (and after)
     * the end of the source.
     */
    void next(Token &token);

    /**
     * Fast path for a qubit index: right after a register name, consumes
     * "[<digits>]" when no blank or comment intervenes and the literal
     * has at most 15 digits, stores its value in @p value and returns
     * true; otherwise consumes nothing and returns false. The ']' then
     * counts as the last token lexed.
     */
    bool index(std::uint64_t &value);

  private:
    std::string_view source_;
    std::size_t pos_ = 0;
    std::size_t line_start_ = 0; // offset of the current line's first byte
    std::uint32_t line_ = 1;
    std::uint32_t token_line_ = 1;
    std::uint32_t token_column_ = 1;
};

} // namespace powermove::qasm

#endif // POWERMOVE_QASM_LEXER_HPP

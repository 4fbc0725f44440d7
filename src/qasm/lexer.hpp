/**
 * @file
 * The OpenQASM 2.0 lexer.
 *
 * Handles line comments (// ...), both integer and real literals
 * (including exponent notation), string literals for include paths, and
 * the keyword set of the OpenQASM 2.0 grammar. Unknown characters raise
 * ParseError with a 1-based line/column position.
 */

#ifndef POWERMOVE_QASM_LEXER_HPP
#define POWERMOVE_QASM_LEXER_HPP

#include <cstddef>
#include <string>
#include <string_view>

#include "qasm/token.hpp"

namespace powermove::qasm {

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

} // namespace powermove::qasm

#endif // POWERMOVE_QASM_LEXER_HPP

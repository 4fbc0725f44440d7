#include "qasm/lexer.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace powermove::qasm {

const char *
tokenKindName(TokenKind kind)
{
    static constexpr const char *kNames[] = {
        "identifier", "real literal", "integer literal", "string literal",
        "'OPENQASM'", "'include'", "'qreg'", "'creg'", "'gate'", "'measure'",
        "'barrier'", "'reset'", "'if'", "'pi'", "';'", "','", "'('", "')'",
        "'['", "']'", "'{'", "'}'", "'->'", "'+'", "'-'", "'*'", "'/'", "'^'",
        "'=='", "end of input"};
    static_assert(std::size(kNames) ==
                  static_cast<std::size_t>(TokenKind::EndOfFile) + 1);
    return kNames[static_cast<std::size_t>(kind)];
}

namespace {

// The "C" locale's character classes, without the locale lookup.
bool isDigit(char c) { return c >= '0' && c <= '9'; }

// ASCII letters: setting bit 5 folds 'A'-'Z' onto 'a'-'z'.
bool isAlpha(char c) { return (c | 0x20) >= 'a' && (c | 0x20) <= 'z'; }
bool isIdentStart(char c) { return isAlpha(c) || c == '_'; }
bool isIdentChar(char c) { return isIdentStart(c) || isDigit(c); }
bool isSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

[[noreturn]] void
fail(const std::string &message, std::uint32_t line, std::uint32_t column)
{
    throw ParseError(message, line, column);
}

TokenKind
keywordOrIdentifier(std::string_view text)
{
    static constexpr std::pair<std::string_view, TokenKind> kKeywords[] = {
        {"OPENQASM", TokenKind::KwOpenQasm}, {"include", TokenKind::KwInclude},
        {"qreg", TokenKind::KwQreg},         {"creg", TokenKind::KwCreg},
        {"gate", TokenKind::KwGate},         {"measure", TokenKind::KwMeasure},
        {"barrier", TokenKind::KwBarrier},   {"reset", TokenKind::KwReset},
        {"if", TokenKind::KwIf},             {"pi", TokenKind::KwPi},
    };
    // Most identifiers are gate and register names that no keyword
    // shares a first letter and length with.
    for (const auto &[keyword, kind] : kKeywords) {
        if (keyword.size() == text.size() && keyword[0] == text[0] &&
            keyword == text)
            return kind;
    }
    return TokenKind::Identifier;
}

} // namespace

void
Lexer::next(Token &token)
{
    const char *const data = source_.data();
    const std::size_t size = source_.size();
    std::size_t p = pos_;
    for (;; ++p) { // whitespace and comments
        if (p >= size) {
            // End of input reports the position of the last token.
            pos_ = p;
            token = Token{TokenKind::EndOfFile, {}, 0.0, token_line_,
                          token_column_};
            return;
        }
        if (data[p] == '\n') {
            ++line_;
            line_start_ = p + 1;
        } else if (data[p] == '/' && p + 1 < size && data[p + 1] == '/') {
            p = std::min(source_.find('\n', p), size) - 1;
        } else if (!isSpace(data[p])) {
            break;
        }
    }
    token_line_ = line_;
    token_column_ = static_cast<std::uint32_t>(p - line_start_ + 1);
    const std::size_t begin = p;
    const char c = data[p++];
    const auto digits = [&] {
        while (p < size && isDigit(data[p]))
            ++p;
    };
    const auto error = [&](const std::string &message) {
        fail(message, token_line_, token_column_);
    };
    const auto follows = [&](char want) {
        return p < size && data[p] == want && (++p, true);
    };
    const auto finish = [&](TokenKind kind) {
        pos_ = p;
        token = Token{kind, std::string_view(data + begin, p - begin), 0.0,
                      token_line_, token_column_};
    };

    if (isIdentStart(c)) {
        while (p < size && isIdentChar(data[p]))
            ++p;
        return finish(keywordOrIdentifier({data + begin, p - begin}));
    }
    if (isDigit(c) || (c == '.' && p < size && isDigit(data[p]))) {
        digits();
        bool real = c == '.' || follows('.');
        if (real)
            digits();
        if (follows('e') || follows('E')) {
            real = true;
            if (!follows('+'))
                follows('-');
            if (p >= size || !isDigit(data[p]))
                error("malformed exponent");
            digits();
        }
        finish(real ? TokenKind::Real : TokenKind::Integer);
        const std::string_view text = token.text;
        if (!real && text.size() < 16) {
            // Exact in a double, so the same value from_chars would give.
            std::uint64_t value = 0;
            for (const char digit : text)
                value = value * 10 + static_cast<std::uint64_t>(digit - '0');
            token.number = static_cast<double>(value);
            return;
        }
        const auto [ptr, ec] = std::from_chars(
            text.data(), text.data() + text.size(), token.number);
        if (ec != std::errc{} || ptr != text.data() + text.size())
            error("malformed number '" + std::string(text) + "'");
        return;
    }
    if (c == '"') {
        const std::size_t end = source_.find_first_of("\"\n", p);
        if (end == std::string_view::npos || data[end] == '\n')
            error("unterminated string literal");
        p = end + 1;
        finish(TokenKind::String);
        token.text = token.text.substr(1, token.text.size() - 2);
        return;
    }
    // Single-character punctuation, in TokenKind order from Semicolon.
    static constexpr std::string_view kPunctuation = ";,()[]{}";
    if (const auto i = kPunctuation.find(c); i != std::string_view::npos)
        return finish(static_cast<TokenKind>(
            static_cast<std::size_t>(TokenKind::Semicolon) + i));
    switch (c) {
      case '+': return finish(TokenKind::Plus);
      case '*': return finish(TokenKind::Star);
      case '/': return finish(TokenKind::Slash);
      case '^': return finish(TokenKind::Caret);
      case '-':
        return finish(follows('>') ? TokenKind::Arrow : TokenKind::Minus);
      case '=':
        if (follows('='))
            return finish(TokenKind::EqualEqual);
        fail("stray '='", token_line_, token_column_);
      default:
        fail(std::string("unexpected character '") + c + "'", token_line_,
             token_column_);
    }
}

bool
Lexer::index(std::uint64_t &value)
{
    const char *const data = source_.data();
    if (pos_ >= source_.size() || data[pos_] != '[')
        return false;
    std::size_t p = pos_ + 1;
    std::uint64_t n = 0;
    const std::size_t first = p;
    while (p < source_.size() && p - first < 16 && isDigit(data[p]))
        n = n * 10 + static_cast<std::uint64_t>(data[p++] - '0');
    if (p == first || p - first >= 16 || p >= source_.size() || data[p] != ']')
        return false;
    token_line_ = line_; // the ']' is now the last token
    token_column_ = static_cast<std::uint32_t>(p - line_start_ + 1);
    pos_ = p + 1;
    value = n;
    return true;
}

} // namespace powermove::qasm

#include "oracles/reference_qasm_lexer.hpp"

#include <cctype>
#include <charconv>
#include <unordered_map>

#include "common/error.hpp"

namespace powermove::qasm::reference {

std::string
tokenKindName(TokenKind kind)
{
    switch (kind) {
      case TokenKind::Identifier:
        return "identifier";
      case TokenKind::Real:
        return "real literal";
      case TokenKind::Integer:
        return "integer literal";
      case TokenKind::String:
        return "string literal";
      case TokenKind::KwOpenQasm:
        return "'OPENQASM'";
      case TokenKind::KwInclude:
        return "'include'";
      case TokenKind::KwQreg:
        return "'qreg'";
      case TokenKind::KwCreg:
        return "'creg'";
      case TokenKind::KwGate:
        return "'gate'";
      case TokenKind::KwMeasure:
        return "'measure'";
      case TokenKind::KwBarrier:
        return "'barrier'";
      case TokenKind::KwReset:
        return "'reset'";
      case TokenKind::KwIf:
        return "'if'";
      case TokenKind::KwPi:
        return "'pi'";
      case TokenKind::Semicolon:
        return "';'";
      case TokenKind::Comma:
        return "','";
      case TokenKind::LParen:
        return "'('";
      case TokenKind::RParen:
        return "')'";
      case TokenKind::LBracket:
        return "'['";
      case TokenKind::RBracket:
        return "']'";
      case TokenKind::LBrace:
        return "'{'";
      case TokenKind::RBrace:
        return "'}'";
      case TokenKind::Arrow:
        return "'->'";
      case TokenKind::Plus:
        return "'+'";
      case TokenKind::Minus:
        return "'-'";
      case TokenKind::Star:
        return "'*'";
      case TokenKind::Slash:
        return "'/'";
      case TokenKind::Caret:
        return "'^'";
      case TokenKind::EqualEqual:
        return "'=='";
      case TokenKind::EndOfFile:
        return "end of input";
    }
    panic("unknown token kind");
}

namespace {

const std::unordered_map<std::string_view, TokenKind> kKeywords = {
    {"OPENQASM", TokenKind::KwOpenQasm},
    {"include", TokenKind::KwInclude},
    {"qreg", TokenKind::KwQreg},
    {"creg", TokenKind::KwCreg},
    {"gate", TokenKind::KwGate},
    {"measure", TokenKind::KwMeasure},
    {"barrier", TokenKind::KwBarrier},
    {"reset", TokenKind::KwReset},
    {"if", TokenKind::KwIf},
    {"pi", TokenKind::KwPi},
};

} // namespace

Token
Lexer::next()
{
    skipWhitespaceAndComments();
    return atEnd() ? make(TokenKind::EndOfFile, "") : lexToken();
}

char
Lexer::peekAt(std::size_t offset) const
{
    return pos_ + offset < source_.size() ? source_[pos_ + offset] : '\0';
}

void
Lexer::advance()
{
    if (source_[pos_] == '\n') {
        ++line_;
        column_ = 1;
    } else {
        ++column_;
    }
    ++pos_;
}

Token
Lexer::make(TokenKind kind, std::string text) const
{
    return Token{kind, std::move(text), 0.0, token_line_, token_column_};
}

void
Lexer::skipWhitespaceAndComments()
{
    for (;;) {
        while (!atEnd() && std::isspace(static_cast<unsigned char>(peek())))
            advance();
        if (!atEnd() && peek() == '/' && peekAt(1) == '/') {
            while (!atEnd() && peek() != '\n')
                advance();
            continue;
        }
        return;
    }
}

Token
Lexer::lexToken()
{
    token_line_ = line_;
    token_column_ = column_;
    const char c = peek();

    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_')
        return identifier();
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(peekAt(1))))) {
        return number();
    }
    if (c == '"')
        return stringLiteral();

    advance();
    switch (c) {
      case ';':
        return make(TokenKind::Semicolon, ";");
      case ',':
        return make(TokenKind::Comma, ",");
      case '(':
        return make(TokenKind::LParen, "(");
      case ')':
        return make(TokenKind::RParen, ")");
      case '[':
        return make(TokenKind::LBracket, "[");
      case ']':
        return make(TokenKind::RBracket, "]");
      case '{':
        return make(TokenKind::LBrace, "{");
      case '}':
        return make(TokenKind::RBrace, "}");
      case '+':
        return make(TokenKind::Plus, "+");
      case '*':
        return make(TokenKind::Star, "*");
      case '/':
        return make(TokenKind::Slash, "/");
      case '^':
        return make(TokenKind::Caret, "^");
      case '-':
        if (!atEnd() && peek() == '>') {
            advance();
            return make(TokenKind::Arrow, "->");
        }
        return make(TokenKind::Minus, "-");
      case '=':
        if (!atEnd() && peek() == '=') {
            advance();
            return make(TokenKind::EqualEqual, "==");
        }
        throw ParseError("stray '='", token_line_, token_column_);
      default:
        throw ParseError(std::string("unexpected character '") + c + "'",
                         token_line_, token_column_);
    }
}

Token
Lexer::identifier()
{
    std::string text;
    while (!atEnd() &&
           (std::isalnum(static_cast<unsigned char>(peek())) ||
            peek() == '_')) {
        text += peek();
        advance();
    }
    const auto it = kKeywords.find(text);
    if (it != kKeywords.end())
        return make(it->second, std::move(text));
    return make(TokenKind::Identifier, std::move(text));
}

Token
Lexer::number()
{
    std::string text;
    bool is_real = false;
    while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek()))) {
        text += peek();
        advance();
    }
    if (!atEnd() && peek() == '.') {
        is_real = true;
        text += peek();
        advance();
        while (!atEnd() &&
               std::isdigit(static_cast<unsigned char>(peek()))) {
            text += peek();
            advance();
        }
    }
    if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
        is_real = true;
        text += peek();
        advance();
        if (!atEnd() && (peek() == '+' || peek() == '-')) {
            text += peek();
            advance();
        }
        if (atEnd() || !std::isdigit(static_cast<unsigned char>(peek())))
            throw ParseError("malformed exponent", token_line_,
                             token_column_);
        while (!atEnd() &&
               std::isdigit(static_cast<unsigned char>(peek()))) {
            text += peek();
            advance();
        }
    }

    Token token =
        make(is_real ? TokenKind::Real : TokenKind::Integer, text);
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || ptr != text.data() + text.size())
        throw ParseError("malformed number '" + text + "'", token_line_,
                         token_column_);
    token.number = value;
    return token;
}

Token
Lexer::stringLiteral()
{
    advance(); // opening quote
    std::string text;
    while (!atEnd() && peek() != '"') {
        if (peek() == '\n')
            throw ParseError("unterminated string literal", token_line_,
                             token_column_);
        text += peek();
        advance();
    }
    if (atEnd())
        throw ParseError("unterminated string literal", token_line_,
                         token_column_);
    advance(); // closing quote
    return make(TokenKind::String, std::move(text));
}

} // namespace powermove::qasm::reference

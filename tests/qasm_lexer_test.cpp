/** @file Tests for the OpenQASM lexer. */

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "qasm/lexer.hpp"

namespace powermove::qasm {
namespace {

/** The next token of @p lexer. */
Token
next(Lexer &lexer)
{
    Token token;
    lexer.next(token);
    return token;
}

/** Every token of @p source, through its final EndOfFile. */
std::vector<Token>
tokenize(std::string_view source)
{
    Lexer lexer(source);
    std::vector<Token> tokens;
    do {
        tokens.push_back(next(lexer));
    } while (tokens.back().kind != TokenKind::EndOfFile);
    return tokens;
}

std::vector<TokenKind>
kindsOf(std::string_view source)
{
    std::vector<TokenKind> kinds;
    for (const auto &token : tokenize(source))
        kinds.push_back(token.kind);
    return kinds;
}

TEST(LexerTest, EmptySourceYieldsEof)
{
    EXPECT_EQ(kindsOf(""), (std::vector<TokenKind>{TokenKind::EndOfFile}));
    EXPECT_EQ(kindsOf("   \n\t "),
              (std::vector<TokenKind>{TokenKind::EndOfFile}));
}

TEST(LexerTest, HeaderLine)
{
    EXPECT_EQ(kindsOf("OPENQASM 2.0;"),
              (std::vector<TokenKind>{TokenKind::KwOpenQasm, TokenKind::Real,
                                      TokenKind::Semicolon,
                                      TokenKind::EndOfFile}));
}

TEST(LexerTest, KeywordsRecognized)
{
    EXPECT_EQ(kindsOf("qreg creg gate measure barrier reset if pi include"),
              (std::vector<TokenKind>{
                  TokenKind::KwQreg, TokenKind::KwCreg, TokenKind::KwGate,
                  TokenKind::KwMeasure, TokenKind::KwBarrier,
                  TokenKind::KwReset, TokenKind::KwIf, TokenKind::KwPi,
                  TokenKind::KwInclude, TokenKind::EndOfFile}));
}

TEST(LexerTest, IdentifiersVsKeywords)
{
    const auto tokens = tokenize("qregx h_2 _tmp");
    EXPECT_EQ(tokens[0].kind, TokenKind::Identifier);
    EXPECT_EQ(tokens[0].text, "qregx");
    EXPECT_EQ(tokens[1].text, "h_2");
    EXPECT_EQ(tokens[2].text, "_tmp");
}

TEST(LexerTest, IntegerAndRealLiterals)
{
    const auto tokens = tokenize("42 3.14 1e-3 2.5E+2 .5");
    EXPECT_EQ(tokens[0].kind, TokenKind::Integer);
    EXPECT_DOUBLE_EQ(tokens[0].number, 42.0);
    EXPECT_EQ(tokens[1].kind, TokenKind::Real);
    EXPECT_DOUBLE_EQ(tokens[1].number, 3.14);
    EXPECT_EQ(tokens[2].kind, TokenKind::Real);
    EXPECT_DOUBLE_EQ(tokens[2].number, 1e-3);
    EXPECT_DOUBLE_EQ(tokens[3].number, 250.0);
    EXPECT_DOUBLE_EQ(tokens[4].number, 0.5);
}

TEST(LexerTest, PunctuationAndOperators)
{
    EXPECT_EQ(kindsOf("; , ( ) [ ] { } -> + - * / ^ =="),
              (std::vector<TokenKind>{
                  TokenKind::Semicolon, TokenKind::Comma, TokenKind::LParen,
                  TokenKind::RParen, TokenKind::LBracket, TokenKind::RBracket,
                  TokenKind::LBrace, TokenKind::RBrace, TokenKind::Arrow,
                  TokenKind::Plus, TokenKind::Minus, TokenKind::Star,
                  TokenKind::Slash, TokenKind::Caret, TokenKind::EqualEqual,
                  TokenKind::EndOfFile}));
}

TEST(LexerTest, ArrowVsMinus)
{
    const auto tokens = tokenize("a -> b - c");
    EXPECT_EQ(tokens[1].kind, TokenKind::Arrow);
    EXPECT_EQ(tokens[3].kind, TokenKind::Minus);
}

TEST(LexerTest, LineCommentsSkipped)
{
    EXPECT_EQ(kindsOf("// whole line\nh // trailing\n// eof"),
              (std::vector<TokenKind>{TokenKind::Identifier,
                                      TokenKind::EndOfFile}));
}

TEST(LexerTest, StringLiterals)
{
    const auto tokens = tokenize("include \"qelib1.inc\";");
    EXPECT_EQ(tokens[1].kind, TokenKind::String);
    EXPECT_EQ(tokens[1].text, "qelib1.inc");
}

TEST(LexerTest, PositionsAreOneBased)
{
    const auto tokens = tokenize("h q;\ncx a,b;");
    EXPECT_EQ(tokens[0].line, 1u);
    EXPECT_EQ(tokens[0].column, 1u);
    EXPECT_EQ(tokens[1].line, 1u);
    EXPECT_EQ(tokens[1].column, 3u);
    EXPECT_EQ(tokens[3].line, 2u); // "cx"
    EXPECT_EQ(tokens[3].column, 1u);
}

TEST(LexerTest, UnterminatedStringThrows)
{
    EXPECT_THROW(tokenize("include \"broken"), ParseError);
    EXPECT_THROW(tokenize("include \"broken\nx\""), ParseError);
}

TEST(LexerTest, StrayCharactersThrowWithPosition)
{
    try {
        tokenize("h q;\n  @");
        FAIL() << "expected ParseError";
    } catch (const ParseError &error) {
        EXPECT_EQ(error.line(), 2u);
        EXPECT_EQ(error.column(), 3u);
    }
}

TEST(LexerTest, MalformedExponentThrows)
{
    EXPECT_THROW(tokenize("1e"), ParseError);
    EXPECT_THROW(tokenize("2.5e+"), ParseError);
}

TEST(LexerTest, SingleEqualsThrows)
{
    EXPECT_THROW(tokenize("a = b"), ParseError);
}

TEST(LexerTest, EofRepeatsAtTheEnd)
{
    Lexer lexer("h q;");
    for (int i = 0; i < 3; ++i)
        next(lexer);
    EXPECT_EQ(next(lexer).kind, TokenKind::EndOfFile);
    EXPECT_EQ(next(lexer).kind, TokenKind::EndOfFile);
}

TEST(LexerTest, StreamingDefersErrorsUntilReached)
{
    // The parser pulls tokens on demand, so a bad character after the
    // first token only throws once the lexer gets there.
    Lexer lexer("h @");
    EXPECT_EQ(next(lexer).kind, TokenKind::Identifier);
    EXPECT_THROW(next(lexer), ParseError);
}

} // namespace
} // namespace powermove::qasm

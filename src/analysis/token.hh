/**
 * @file
 * Token stream for the static analyzer.
 *
 * The whole point of vic_lint over the old grep-based lint is that
 * passes see a COMMENT- AND STRING-AWARE view of the source: a banned
 * identifier mentioned in a comment or a string literal is not a use,
 * and an identifier at the start of a line is one. The tokenizer is a
 * single-purpose C++ lexer — it does not expand the preprocessor or
 * resolve templates; it classifies bytes into identifiers, literals,
 * comments, punctuation and #include directives with exact line:column
 * positions, which is all the passes need.
 */

#ifndef VIC_ANALYSIS_TOKEN_HH
#define VIC_ANALYSIS_TOKEN_HH

#include <cstdint>
#include <string>
#include <vector>

namespace vic::analysis
{

enum class TokKind : std::uint8_t
{
    Ident,    ///< identifier or keyword
    Number,   ///< numeric literal (ints, floats, hex, separators)
    String,   ///< string literal, text WITH quotes (raw strings too)
    CharLit,  ///< character literal, text with quotes
    Comment,  ///< // or block comment, raw text with markers
    Punct,    ///< one punctuation character ("::" is one token)
    Include,  ///< #include directive; text is the target WITH its
              ///< delimiters: "dir/file.hh" or <vector>
};

struct Token
{
    TokKind kind = TokKind::Punct;
    std::string text;
    std::uint32_t line = 1;  ///< 1-based
    std::uint32_t col = 1;   ///< 1-based byte column
};

/** Lex @p text. Never fails: unrecognised bytes become Punct. */
std::vector<Token> tokenize(const std::string &text);

} // namespace vic::analysis

#endif // VIC_ANALYSIS_TOKEN_HH

#include "analysis/token.hh"

#include <cctype>

namespace vic::analysis
{
namespace
{

bool
identStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
identCont(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

class Lexer
{
  public:
    explicit Lexer(const std::string &src) : text(src) {}

    std::vector<Token> run()
    {
        while (pos < text.size())
            lexOne();
        return std::move(out);
    }

  private:
    const std::string &text;
    std::size_t pos = 0;
    std::uint32_t line = 1;
    std::uint32_t col = 1;
    bool lineHasToken = false;
    std::vector<Token> out;

    char cur() const { return text[pos]; }
    char peek(std::size_t n = 1) const
    {
        return pos + n < text.size() ? text[pos + n] : '\0';
    }

    void advance()
    {
        if (text[pos] == '\n') {
            ++line;
            col = 1;
            lineHasToken = false;
        } else {
            ++col;
        }
        ++pos;
    }

    void emit(TokKind kind, std::size_t begin, std::uint32_t at_line,
              std::uint32_t at_col)
    {
        Token t;
        t.kind = kind;
        t.text = text.substr(begin, pos - begin);
        t.line = at_line;
        t.col = at_col;
        out.push_back(std::move(t));
    }

    /** Mark that the current line now carries a token; @return whether
     *  the token being started is the line's first. */
    bool claimFirst()
    {
        const bool first = !lineHasToken;
        lineHasToken = true;
        return first;
    }

    void lexOne()
    {
        const char c = cur();
        if (c == ' ' || c == '\t' || c == '\r' || c == '\n' ||
            c == '\f' || c == '\v') {
            advance();
            return;
        }

        const std::size_t begin = pos;
        const std::uint32_t at_line = line;
        const std::uint32_t at_col = col;
        const bool first = claimFirst();

        if (c == '/' && peek() == '/') {
            while (pos < text.size() && cur() != '\n')
                advance();
            emit(TokKind::Comment, begin, at_line, at_col);
            return;
        }
        if (c == '/' && peek() == '*') {
            advance();
            advance();
            while (pos < text.size() &&
                   !(cur() == '*' && peek() == '/'))
                advance();
            if (pos < text.size()) {
                advance();
                advance();
            }
            emit(TokKind::Comment, begin, at_line, at_col);
            return;
        }
        if (c == '"' || (c == 'R' && peek() == '"')) {
            lexString();
            emit(TokKind::String, begin, at_line, at_col);
            return;
        }
        if (c == '\'') {
            advance();
            while (pos < text.size() && cur() != '\'') {
                if (cur() == '\\')
                    advance();
                if (pos < text.size())
                    advance();
            }
            if (pos < text.size())
                advance();
            emit(TokKind::CharLit, begin, at_line, at_col);
            return;
        }
        if (identStart(c)) {
            while (pos < text.size() && identCont(cur()))
                advance();
            emit(TokKind::Ident, begin, at_line, at_col);
            return;
        }
        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '.' &&
             std::isdigit(static_cast<unsigned char>(peek())))) {
            // Generous numeric literal: hex, separators, suffixes,
            // exponents. Passes never inspect the digits, only that
            // the bytes are not an identifier.
            while (pos < text.size() &&
                   (identCont(cur()) || cur() == '.' || cur() == '\'' ||
                    ((cur() == '+' || cur() == '-') &&
                     (text[pos - 1] == 'e' || text[pos - 1] == 'E' ||
                      text[pos - 1] == 'p' || text[pos - 1] == 'P'))))
                advance();
            emit(TokKind::Number, begin, at_line, at_col);
            return;
        }
        if (c == '#' && first) {
            if (lexInclude(begin, at_line, at_col))
                return;
            advance();
            emit(TokKind::Punct, begin, at_line, at_col);
            return;
        }
        if (c == ':' && peek() == ':') {
            advance();
            advance();
            emit(TokKind::Punct, begin, at_line, at_col);
            return;
        }
        advance();
        emit(TokKind::Punct, begin, at_line, at_col);
    }

    void lexString()
    {
        if (cur() == 'R') {
            // Raw string: R"delim( ... )delim"
            advance();  // R
            advance();  // "
            std::string delim;
            while (pos < text.size() && cur() != '(') {
                delim += cur();
                advance();
            }
            const std::string close = ")" + delim + "\"";
            while (pos < text.size() &&
                   text.compare(pos, close.size(), close) != 0)
                advance();
            for (std::size_t i = 0; i < close.size() &&
                                    pos < text.size(); ++i)
                advance();
            return;
        }
        advance();  // opening quote
        while (pos < text.size() && cur() != '"' && cur() != '\n') {
            if (cur() == '\\')
                advance();
            if (pos < text.size())
                advance();
        }
        if (pos < text.size() && cur() == '"')
            advance();
    }

    /** At a line-leading '#': recognise an #include directive and emit
     *  an Include token carrying the delimited target. @return false
     *  when the directive is something else (caller lexes '#'). */
    bool lexInclude(std::size_t, std::uint32_t at_line,
                    std::uint32_t at_col)
    {
        std::size_t p = pos + 1;
        while (p < text.size() &&
               (text[p] == ' ' || text[p] == '\t'))
            ++p;
        if (text.compare(p, 7, "include") != 0)
            return false;
        p += 7;
        while (p < text.size() &&
               (text[p] == ' ' || text[p] == '\t'))
            ++p;
        if (p >= text.size() ||
            (text[p] != '"' && text[p] != '<'))
            return false;
        const char closer = text[p] == '"' ? '"' : '>';
        std::size_t q = p + 1;
        while (q < text.size() && text[q] != closer &&
               text[q] != '\n')
            ++q;
        if (q >= text.size() || text[q] != closer)
            return false;
        Token t;
        t.kind = TokKind::Include;
        t.text = text.substr(p, q - p + 1);
        t.line = at_line;
        t.col = at_col;
        out.push_back(std::move(t));
        while (pos <= q)
            advance();
        return true;
    }
};

} // anonymous namespace

std::vector<Token>
tokenize(const std::string &text)
{
    return Lexer(text).run();
}

} // namespace vic::analysis

#include "analysis/cpp_scan.hh"

namespace vic::analysis
{

bool
isPunct(const std::vector<Token> &toks, std::size_t i, const char *p)
{
    return i < toks.size() && toks[i].kind == TokKind::Punct &&
           toks[i].text == p;
}

bool
isIdent(const std::vector<Token> &toks, std::size_t i, const char *id)
{
    return i < toks.size() && toks[i].kind == TokKind::Ident &&
           toks[i].text == id;
}

std::size_t
skipComments(const std::vector<Token> &toks, std::size_t i)
{
    while (i < toks.size() && toks[i].kind == TokKind::Comment)
        ++i;
    return i;
}

std::size_t
matchForward(const std::vector<Token> &toks, std::size_t i)
{
    if (i >= toks.size() || toks[i].kind != TokKind::Punct)
        return toks.size();
    const std::string &open = toks[i].text;
    std::string close;
    if (open == "(")
        close = ")";
    else if (open == "{")
        close = "}";
    else if (open == "[")
        close = "]";
    else
        return toks.size();
    int depth = 0;
    for (std::size_t j = i; j < toks.size(); ++j) {
        if (toks[j].kind != TokKind::Punct)
            continue;
        if (toks[j].text == open)
            ++depth;
        else if (toks[j].text == close) {
            --depth;
            if (depth == 0)
                return j;
        }
    }
    return toks.size();
}

} // namespace vic::analysis

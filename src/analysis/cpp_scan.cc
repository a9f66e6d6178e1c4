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

} // namespace vic::analysis

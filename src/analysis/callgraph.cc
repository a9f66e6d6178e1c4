#include "analysis/callgraph.hh"

#include "analysis/cpp_scan.hh"

namespace vic::analysis
{
namespace
{

bool
isQualifierIdent(const Token &t)
{
    return t.kind == TokKind::Ident &&
           (t.text == "const" || t.text == "noexcept" ||
            t.text == "override" || t.text == "final");
}

bool
isControlKeyword(const std::string &s)
{
    return s == "if" || s == "for" || s == "while" || s == "switch" ||
           s == "catch" || s == "return" || s == "sizeof";
}

/** Previous non-comment token index, or toks.size() when none. */
std::size_t
prevCode(const std::vector<Token> &toks, std::size_t i)
{
    while (i > 0) {
        --i;
        if (toks[i].kind != TokKind::Comment)
            return i;
    }
    return toks.size();
}

/** Given @p i at a ')', index of its matching '(' walking backwards;
 *  toks.size() when unbalanced. */
std::size_t
matchBackParen(const std::vector<Token> &toks, std::size_t i)
{
    int depth = 0;
    for (std::size_t j = i + 1; j-- > 0;) {
        if (toks[j].kind != TokKind::Punct)
            continue;
        if (toks[j].text == ")")
            ++depth;
        else if (toks[j].text == "(") {
            --depth;
            if (depth == 0)
                return j;
        }
    }
    return toks.size();
}

} // anonymous namespace

CallGraph
CallGraph::build(const std::vector<SourceFile> &files)
{
    CallGraph g;
    g.srcs = &files;

    for (std::size_t fi = 0; fi < files.size(); ++fi) {
        const std::vector<Token> &toks = files[fi].tokens;
        for (std::size_t i = 0; i < toks.size(); ++i) {
            if (!isPunct(toks, i, "{"))
                continue;

            // Walk back over trailing qualifiers, and remember where
            // the signature tail (init list or body) begins.
            std::size_t j = prevCode(toks, i);
            std::size_t extent_begin = i;
            // Init list: "...) : a(1), b(2) {" — walk back through
            // the initialiser expressions to the ':'. The walk never
            // crosses a brace or semicolon, so it cannot escape into
            // a preceding definition.
            {
                std::size_t k = j;
                int guard = 0;
                while (k < toks.size() && guard < 4096) {
                    ++guard;
                    if (isPunct(toks, k, ")")) {
                        const std::size_t open_k =
                            matchBackParen(toks, k);
                        if (open_k >= toks.size())
                            break;
                        k = prevCode(toks, open_k);
                        continue;
                    }
                    if (toks[k].kind == TokKind::Ident ||
                        isPunct(toks, k, ",") ||
                        (toks[k].kind == TokKind::Punct &&
                         toks[k].text == "::") ||
                        toks[k].kind == TokKind::Number ||
                        toks[k].kind == TokKind::String ||
                        isPunct(toks, k, ".") || isPunct(toks, k, "&") ||
                        isPunct(toks, k, "*")) {
                        k = prevCode(toks, k);
                        continue;
                    }
                    break;
                }
                if (k < toks.size() && isPunct(toks, k, ":")) {
                    const std::size_t before_colon = prevCode(toks, k);
                    if (before_colon < toks.size() &&
                        isPunct(toks, before_colon, ")")) {
                        extent_begin = k;
                        j = before_colon;
                    }
                }
            }
            while (j < toks.size() && isQualifierIdent(toks[j]))
                j = prevCode(toks, j);
            if (j >= toks.size() || !isPunct(toks, j, ")"))
                continue;  // namespace / class body / init block
            const std::size_t param_open = matchBackParen(toks, j);
            if (param_open >= toks.size())
                continue;
            const std::size_t name_tok = prevCode(toks, param_open);
            if (name_tok >= toks.size() ||
                toks[name_tok].kind != TokKind::Ident ||
                isControlKeyword(toks[name_tok].text))
                continue;
            const std::size_t close = matchForward(toks, i);
            if (close >= toks.size())
                continue;

            FnInfo fn;
            fn.fileIndex = fi;
            fn.name = toks[name_tok].text;
            fn.paramOpen = param_open;
            fn.paramClose = j;
            fn.close = close;
            fn.extentBegin = extent_begin;
            g.fns.push_back(std::move(fn));
            i = close;  // bodies do not nest (lambdas stay inside)
        }
    }

    // Index by unqualified name.
    for (std::size_t f = 0; f < g.fns.size(); ++f)
        g.byName[g.fns[f].name].push_back(f);

    return g;
}

const std::vector<std::size_t> &
CallGraph::resolve(const std::string &name) const
{
    const auto it = byName.find(name);
    return it == byName.end() ? empty : it->second;
}

} // namespace vic::analysis

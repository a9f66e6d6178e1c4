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

/** Discover class/struct definition brace ranges in one file. */
void
findClasses(const std::vector<Token> &toks, std::size_t file_index,
            std::vector<ClassInfo> &out)
{
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!isIdent(toks, i, "class") && !isIdent(toks, i, "struct"))
            continue;
        const std::size_t before = prevCode(toks, i);
        if (before < toks.size() && isIdent(toks, before, "enum"))
            continue;  // enum class: no member declarations
        std::size_t n = skipComments(toks, i + 1);
        if (n >= toks.size() || toks[n].kind != TokKind::Ident)
            continue;  // anonymous struct / template <class T>
        const std::string name = toks[n].text;
        std::size_t j = skipComments(toks, n + 1);
        if (j < toks.size() && isIdent(toks, j, "final"))
            j = skipComments(toks, j + 1);
        if (isPunct(toks, j, ":")) {
            // Base-clause: scan forward to the body '{'.
            while (j < toks.size() && !isPunct(toks, j, "{") &&
                   !isPunct(toks, j, ";"))
                ++j;
        }
        if (!isPunct(toks, j, "{"))
            continue;  // forward declaration or template parameter
        const std::size_t close = matchForward(toks, j);
        if (close >= toks.size())
            continue;
        ClassInfo c;
        c.fileIndex = file_index;
        c.name = name;
        c.open = j;
        c.close = close;
        out.push_back(std::move(c));
    }
}

} // anonymous namespace

CallGraph
CallGraph::build(const std::vector<SourceFile> &files)
{
    CallGraph g;
    g.srcs = &files;

    for (std::size_t fi = 0; fi < files.size(); ++fi) {
        const std::vector<Token> &toks = files[fi].tokens;
        findClasses(toks, fi, g.structs);

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
            fn.nameTok = name_tok;
            fn.paramOpen = param_open;
            fn.paramClose = j;
            fn.open = i;
            fn.close = close;
            fn.extentBegin = extent_begin;
            fn.line = toks[name_tok].line;
            fn.col = toks[name_tok].col;

            // Lexical qualification: "A::B::name".
            std::string qualified = fn.name;
            std::size_t q = name_tok;
            while (true) {
                const std::size_t sep = prevCode(toks, q);
                if (sep >= toks.size() || toks[sep].kind != TokKind::Punct ||
                    toks[sep].text != "::")
                    break;
                const std::size_t cls = prevCode(toks, sep);
                if (cls >= toks.size() ||
                    toks[cls].kind != TokKind::Ident)
                    break;
                if (fn.className.empty())
                    fn.className = toks[cls].text;
                qualified = toks[cls].text + "::" + qualified;
                q = cls;
            }
            if (fn.className.empty()) {
                // In-class body: qualify by the innermost enclosing
                // class definition.
                for (const ClassInfo &c : g.structs) {
                    if (c.fileIndex == fi && c.open < name_tok &&
                        name_tok < c.close)
                        fn.className = c.name;
                }
                if (!fn.className.empty())
                    qualified = fn.className + "::" + qualified;
            }
            fn.qualified = qualified;

            g.fns.push_back(std::move(fn));
            i = close;  // bodies do not nest (lambdas stay inside)
        }
    }

    // Index by unqualified name.
    for (std::size_t f = 0; f < g.fns.size(); ++f)
        g.byName[g.fns[f].name].push_back(f);

    // Call sites per function extent (init list + body; the parameter
    // list is declarations, not calls).
    g.fnCalls.resize(g.fns.size());
    for (std::size_t f = 0; f < g.fns.size(); ++f) {
        const FnInfo &fn = g.fns[f];
        const std::vector<Token> &toks =
            files[fn.fileIndex].tokens;
        for (std::size_t i = fn.extentBegin; i < fn.close; ++i) {
            if (toks[i].kind != TokKind::Ident ||
                isControlKeyword(toks[i].text))
                continue;
            if (!isPunct(toks, skipComments(toks, i + 1), "("))
                continue;
            CallSiteInfo cs;
            cs.caller = f;
            cs.callee = toks[i].text;
            cs.tok = i;
            cs.line = toks[i].line;
            cs.col = toks[i].col;
            g.fnCalls[f].push_back(g.sites.size());
            g.sites.push_back(std::move(cs));
        }
    }
    return g;
}

const std::vector<std::size_t> &
CallGraph::callsOf(std::size_t fn) const
{
    return fn < fnCalls.size() ? fnCalls[fn] : empty;
}

const std::vector<std::size_t> &
CallGraph::resolve(const std::string &name) const
{
    const auto it = byName.find(name);
    return it == byName.end() ? empty : it->second;
}

std::size_t
CallGraph::enclosingFunction(std::size_t file_index,
                             std::size_t tok) const
{
    for (std::size_t f = 0; f < fns.size(); ++f) {
        const FnInfo &fn = fns[f];
        if (fn.fileIndex == file_index && fn.nameTok <= tok &&
            tok <= fn.close)
            return f;
    }
    return kNoFunction;
}

std::vector<std::string>
CallGraph::enclosingClasses(std::size_t file_index,
                            std::size_t tok) const
{
    std::vector<std::string> out;
    for (const ClassInfo &c : structs) {
        if (c.fileIndex == file_index && c.open < tok &&
            tok < c.close)
            out.push_back(c.name);
    }
    return out;
}

} // namespace vic::analysis

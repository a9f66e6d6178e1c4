/**
 * @file
 * Pass: addr-kind — virtual/physical address-bit laundering through
 * raw uint64_t channels.
 *
 * The paper's whole subject is that virtual and physical addresses
 * index and tag caches DIFFERENTLY; the repo encodes that at the type
 * level with VirtAddr / PhysAddr / SpaceVa wrappers whose payload is
 * reachable only through `.value`. The type system stops direct
 * cross-assignment, but the moment bits pass through a raw
 * `std::uint64_t` (a helper parameter, a local, a return) the kinds
 * wash out and nothing stops physical bits from being re-wrapped as a
 * virtual address two calls later.
 *
 * This pass tracks address KINDS through exactly those channels:
 *
 *   - an unwrap `x.value` has the kind of x's declared wrapper type
 *     (VirtAddr/SpaceVa -> virtual, PhysAddr -> physical);
 *   - a raw-u64 local takes its initialiser's kind;
 *   - a raw-u64 function return joins the kinds of all `return`
 *     expressions (computed to a fixed point over the call graph);
 *   - a raw-u64 parameter joins the kinds of the argument expressions
 *     at EVERY call site in the tree (caller-to-callee propagation,
 *     iterated globally until stable).
 *
 * Wrapping (`PhysAddr{...}` / `VirtAddr{...}`) re-types the bits, so
 * wrapped subexpressions contribute nothing to the surrounding raw
 * expression's kind. Typedef'd integers (FrameId and friends) are
 * deliberately NOT channels: they are kind-neutral handles, and only
 * the literal `uint64_t` spelling marks a raw address conduit.
 *
 * Rules:
 *   addr-kind-mixed — a raw uint64_t parameter observes BOTH kinds
 *     across call sites. Genuinely polymorphic channels exist (a
 *     virtually-indexed cache's set-index helper takes va-bits or
 *     pa-bits by configuration) and carry a documented suppression.
 *   addr-kind-rewrap — bits of a pure kind are re-wrapped as the
 *     OPPOSITE kind with no arithmetic in between. Translation
 *     compositions (`PhysAddr{frame | (va.value & mask)}`) contain
 *     operators and are exempt; a bare `PhysAddr{va.value}` is a
 *     laundering bug, not a translation.
 */

#include <algorithm>
#include <map>
#include <set>

#include "analysis/callgraph.hh"
#include "analysis/cpp_scan.hh"
#include "analysis/pass.hh"

#include "common/logging.hh"

namespace vic::analysis
{
namespace
{

const char *const kRuleMixed = "addr-kind-mixed";
const char *const kRuleRewrap = "addr-kind-rewrap";

constexpr unsigned kNone = 0;
constexpr unsigned kVirt = 1;
constexpr unsigned kPhys = 2;
constexpr unsigned kMixed = 3;

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

/** Wrapper-type kind for an identifier, or kNone. */
unsigned
wrapKindOf(const std::string &name)
{
    if (name == "VirtAddr" || name == "SpaceVa")
        return kVirt;
    if (name == "PhysAddr")
        return kPhys;
    return kNone;
}

const char *
kindName(unsigned k)
{
    return k == kVirt ? "virtual" : k == kPhys ? "physical" : "mixed";
}

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

struct U64Param
{
    std::string name;
    std::size_t argIndex = 0;  ///< position in the parameter list
    std::uint32_t line = 0;
    std::uint32_t col = 0;
};

struct U64Local
{
    std::string name;
    std::size_t initBegin = 0;  ///< token range of the initialiser
    std::size_t initEnd = 0;    ///< (empty when uninitialised)
};

struct ArgRange
{
    std::size_t begin = 0;
    std::size_t end = 0;
};

struct CallArgs
{
    std::string callee;
    std::vector<ArgRange> args;
};

struct RewrapSite
{
    unsigned wrap = kNone;
    std::string wrapName;
    std::size_t begin = 0;  ///< inner expression token range
    std::size_t end = 0;
    std::uint32_t line = 0;
    std::uint32_t col = 0;
};

struct ReturnExpr
{
    std::size_t begin = 0;
    std::size_t end = 0;
};

/** Everything the kind evaluator needs about one function, computed
 *  once from the token stream. */
struct FnEnv
{
    bool inScope = false;
    std::map<std::string, unsigned> typedKinds;  ///< wrapper decls
    std::vector<U64Param> u64Params;
    std::map<std::string, std::size_t> paramSlot;  ///< name -> index
    std::vector<U64Local> u64Locals;
    std::map<std::string, std::size_t> localSlot;
    std::vector<ReturnExpr> returns;
    std::vector<CallArgs> calls;
    std::vector<RewrapSite> rewraps;
};

class AddrKindPass : public Pass
{
  public:
    const char *name() const override { return "addr-kind"; }

    const char *summary() const override
    {
        return "virtual and physical address bits never swap kinds "
               "while travelling through raw uint64_t parameters, "
               "locals and returns (whole-program propagation)";
    }

    std::vector<RuleInfo> rules() const override
    {
        return {
            {kRuleMixed,
             "a raw uint64_t parameter receives virtual-address bits "
             "from some call sites and physical-address bits from "
             "others — the kinds wash out in one channel"},
            {kRuleRewrap,
             "address bits of one kind are re-wrapped as the opposite "
             "wrapper type with no intervening arithmetic — "
             "laundering, not translation"},
        };
    }

    void run(const PassContext &ctx, Sink &sink,
             PassStats &stats) const override
    {
        const CallGraph g = CallGraph::build(ctx.files);
        const std::vector<FnInfo> &fns = g.functions();

        std::vector<FnEnv> envs(fns.size());
        for (std::size_t f = 0; f < fns.size(); ++f)
            buildEnv(g, f, envs[f]);

        // Kind state, driven to a global fixed point. retKind flows
        // callee->caller; paramKind flows caller->callee; locals sit
        // in between. All joins are monotone in the {None,V,P,Mixed}
        // lattice, so round-robin sweeps converge.
        std::vector<unsigned> retKind(fns.size(), kNone);
        std::vector<std::vector<unsigned>> paramKind(fns.size());
        std::vector<std::vector<unsigned>> localKind(fns.size());
        std::size_t channels = 0;
        for (std::size_t f = 0; f < fns.size(); ++f) {
            paramKind[f].assign(envs[f].u64Params.size(), kNone);
            localKind[f].assign(envs[f].u64Locals.size(), kNone);
            channels +=
                envs[f].u64Params.size() + envs[f].u64Locals.size();
        }

        std::uint64_t rounds = 0;
        bool changed = true;
        while (changed && rounds < 12) {
            changed = false;
            ++rounds;
            for (std::size_t f = 0; f < fns.size(); ++f) {
                const FnEnv &env = envs[f];
                const std::vector<Token> &toks =
                    g.files()[fns[f].fileIndex].tokens;

                for (std::size_t l = 0; l < env.u64Locals.size();
                     ++l) {
                    const U64Local &lo = env.u64Locals[l];
                    const unsigned k =
                        localKind[f][l] |
                        evalKind(g, toks, f, envs, retKind, paramKind,
                                 localKind, lo.initBegin, lo.initEnd);
                    if (k != localKind[f][l]) {
                        localKind[f][l] = k;
                        changed = true;
                    }
                }
                for (const ReturnExpr &r : env.returns) {
                    const unsigned k =
                        retKind[f] |
                        evalKind(g, toks, f, envs, retKind, paramKind,
                                 localKind, r.begin, r.end);
                    if (k != retKind[f]) {
                        retKind[f] = k;
                        changed = true;
                    }
                }
                for (const CallArgs &c : env.calls) {
                    for (std::size_t callee : g.resolve(c.callee)) {
                        for (std::size_t a = 0; a < c.args.size();
                             ++a) {
                            const auto &ps = envs[callee].u64Params;
                            for (std::size_t s = 0; s < ps.size();
                                 ++s) {
                                if (ps[s].argIndex != a)
                                    continue;
                                const unsigned k =
                                    paramKind[callee][s] |
                                    evalKind(g, toks, f, envs,
                                             retKind, paramKind,
                                             localKind,
                                             c.args[a].begin,
                                             c.args[a].end);
                                if (k != paramKind[callee][s]) {
                                    paramKind[callee][s] = k;
                                    changed = true;
                                }
                            }
                        }
                    }
                }
            }
        }

        stats.functionsAnalyzed = fns.size();
        stats.summariesComputed = channels;
        stats.fixpointIterations = rounds;

        // Rule 1: a raw-u64 parameter observed with both kinds.
        for (std::size_t f = 0; f < fns.size(); ++f) {
            if (!envs[f].inScope)
                continue;
            const std::string &path =
                g.files()[fns[f].fileIndex].path;
            for (std::size_t s = 0; s < envs[f].u64Params.size();
                 ++s) {
                if (paramKind[f][s] != kMixed)
                    continue;
                const U64Param &p = envs[f].u64Params[s];
                sink.report(
                    kRuleMixed, path, p.line, p.col,
                    format("raw uint64_t parameter '%s' of '%s' "
                           "receives both virtual- and "
                           "physical-address bits across call sites "
                           "— the kinds wash out in one channel",
                           p.name.c_str(), fns[f].name.c_str()));
            }
        }

        // Rule 2: pure-kind bits re-wrapped as the opposite wrapper.
        for (std::size_t f = 0; f < fns.size(); ++f) {
            if (!envs[f].inScope)
                continue;
            const std::string &path =
                g.files()[fns[f].fileIndex].path;
            const std::vector<Token> &toks =
                g.files()[fns[f].fileIndex].tokens;
            for (const RewrapSite &rw : envs[f].rewraps) {
                if (hasArithmetic(toks, rw.begin, rw.end))
                    continue;
                const unsigned inner =
                    evalKind(g, toks, f, envs, retKind, paramKind,
                             localKind, rw.begin, rw.end);
                if ((rw.wrap == kPhys && inner == kVirt) ||
                    (rw.wrap == kVirt && inner == kPhys)) {
                    sink.report(
                        kRuleRewrap, path, rw.line, rw.col,
                        format("%s-address bits re-wrapped as %s "
                               "with no intervening arithmetic — "
                               "laundering, not translation",
                               kindName(inner),
                               rw.wrapName.c_str()));
                }
            }
        }
    }

  private:
    /** Operators that mark a genuine bit-level translation between
     *  the unwrap and the re-wrap. `->` lexes as '-' '>', so pointer
     *  chases also (conservatively) count. */
    bool hasArithmetic(const std::vector<Token> &toks,
                       std::size_t begin, std::size_t end) const
    {
        static const char *const ops[] = {"+", "-", "*", "/", "%",
                                          "&", "|", "^", "~", "?"};
        for (std::size_t i = begin; i < end; ++i) {
            if (toks[i].kind != TokKind::Punct)
                continue;
            for (const char *op : ops) {
                if (toks[i].text == op)
                    return true;
            }
        }
        return false;
    }

    /** Join the kinds contributed by every channel read in the token
     *  range [begin, end): `x.value` unwraps, raw-u64 params/locals,
     *  and calls to functions with a known raw-u64 return kind.
     *  Wrapped subexpressions are skipped: the wrap re-types them. */
    unsigned evalKind(const CallGraph &g,
                      const std::vector<Token> &toks, std::size_t fn,
                      const std::vector<FnEnv> &envs,
                      const std::vector<unsigned> &retKind,
                      const std::vector<std::vector<unsigned>> &paramKind,
                      const std::vector<std::vector<unsigned>> &localKind,
                      std::size_t begin, std::size_t end) const
    {
        const FnEnv &env = envs[fn];
        unsigned k = kNone;
        for (std::size_t i = begin; i < end; ++i) {
            if (toks[i].kind != TokKind::Ident)
                continue;

            // A wrap re-types its operand: skip the whole group.
            if (wrapKindOf(toks[i].text) != kNone) {
                const std::size_t open = skipComments(toks, i + 1);
                if (isPunct(toks, open, "(") ||
                    isPunct(toks, open, "{")) {
                    i = std::min(matchForward(toks, open), end);
                    continue;
                }
            }

            // Only chain HEADS are channel reads: `beat->pa.value`
            // must resolve against `pa` the member, not a local that
            // happens to share the name. (`->` lexes as '-' '>'.)
            const std::size_t p = prevCode(toks, i);
            if (p < toks.size() && toks[p].kind == TokKind::Punct) {
                if (toks[p].text == "." || toks[p].text == "::")
                    continue;
                if (toks[p].text == ">") {
                    const std::size_t q = prevCode(toks, p);
                    if (q < toks.size() && isPunct(toks, q, "-"))
                        continue;
                }
            }

            const std::size_t n = skipComments(toks, i + 1);

            // Unwrap: `x.value` with x a declared wrapper.
            if (isPunct(toks, n, ".")) {
                const std::size_t v = skipComments(toks, n + 1);
                if (v < end && isIdent(toks, v, "value")) {
                    const auto it = env.typedKinds.find(toks[i].text);
                    if (it != env.typedKinds.end())
                        k |= it->second;
                    i = v;
                    continue;
                }
            }

            // Call: join the raw-u64 return kind of every candidate.
            if (isPunct(toks, n, "(")) {
                for (std::size_t d : g.resolve(toks[i].text))
                    k |= retKind[d];
                continue;
            }

            const auto ps = env.paramSlot.find(toks[i].text);
            if (ps != env.paramSlot.end()) {
                k |= paramKind[fn][ps->second];
                continue;
            }
            const auto ls = env.localSlot.find(toks[i].text);
            if (ls != env.localSlot.end())
                k |= localKind[fn][ls->second];
        }
        return k;
    }

    void buildEnv(const CallGraph &g, std::size_t f,
                  FnEnv &env) const
    {
        const FnInfo &fn = g.functions()[f];
        const SourceFile &src = g.files()[fn.fileIndex];
        const std::vector<Token> &toks = src.tokens;
        env.inScope = startsWith(src.path, "src/") &&
                      !startsWith(src.path, "src/analysis/");
        if (!env.inScope)
            return;

        parseParams(toks, fn, env);
        scanBody(toks, fn, env);
    }

    void parseParams(const std::vector<Token> &toks,
                     const FnInfo &fn, FnEnv &env) const
    {
        if (fn.paramOpen >= fn.paramClose)
            return;
        std::size_t seg_begin = fn.paramOpen + 1;
        std::size_t arg_index = 0;
        int depth = 0;
        for (std::size_t i = fn.paramOpen + 1; i <= fn.paramClose;
             ++i) {
            const bool at_end = i == fn.paramClose;
            if (!at_end && toks[i].kind == TokKind::Punct) {
                const std::string &t = toks[i].text;
                if (t == "(" || t == "[" || t == "{" || t == "<")
                    ++depth;
                else if (t == ")" || t == "]" || t == "}" || t == ">")
                    --depth;
            }
            if (!at_end &&
                !(depth == 0 && isPunct(toks, i, ",")))
                continue;
            classifyParam(toks, seg_begin, i, arg_index, env);
            seg_begin = i + 1;
            ++arg_index;
        }
    }

    void classifyParam(const std::vector<Token> &toks,
                       std::size_t begin, std::size_t end,
                       std::size_t arg_index, FnEnv &env) const
    {
        // The declared name: the last identifier before any default.
        std::size_t name_tok = toks.size();
        bool is_u64 = false;
        unsigned wrap = kNone;
        bool has_template = false;
        for (std::size_t i = begin; i < end; ++i) {
            if (isPunct(toks, i, "="))
                break;
            if (isPunct(toks, i, "<"))
                has_template = true;
            if (toks[i].kind != TokKind::Ident)
                continue;
            if (toks[i].text == "uint64_t")
                is_u64 = true;
            else if (wrapKindOf(toks[i].text) != kNone)
                wrap = wrapKindOf(toks[i].text);
            name_tok = i;
        }
        if (name_tok >= toks.size())
            return;
        const std::string &name = toks[name_tok].text;
        if (name == "uint64_t" || wrapKindOf(name) != kNone)
            return;  // unnamed parameter
        if (wrap != kNone) {
            env.typedKinds[name] = wrap;
            return;
        }
        if (!is_u64 || has_template)
            return;
        U64Param p;
        p.name = name;
        p.argIndex = arg_index;
        p.line = toks[name_tok].line;
        p.col = toks[name_tok].col;
        env.paramSlot[name] = env.u64Params.size();
        env.u64Params.push_back(std::move(p));
    }

    /** One flat scan of the body for declarations, returns, call
     *  arguments and rewrap sites. Flow-insensitive by design: kinds
     *  only ever join. */
    void scanBody(const std::vector<Token> &toks, const FnInfo &fn,
                  FnEnv &env) const
    {
        for (std::size_t i = fn.extentBegin; i < fn.close; ++i) {
            if (toks[i].kind != TokKind::Ident)
                continue;
            const std::string &txt = toks[i].text;
            const std::size_t n = skipComments(toks, i + 1);

            // Rewrap site: `PhysAddr(expr)` / `VirtAddr{expr}` with
            // nothing between the type name and the opener. A named
            // declaration (`PhysAddr base(...)`) has the variable
            // name in between and is handled as a typed decl below.
            const unsigned wk = wrapKindOf(txt);
            if (wk != kNone &&
                (isPunct(toks, n, "(") || isPunct(toks, n, "{"))) {
                const std::size_t close = matchForward(toks, n);
                if (close < fn.close) {
                    RewrapSite rw;
                    rw.wrap = wk;
                    rw.wrapName = txt;
                    rw.begin = n + 1;
                    rw.end = close;
                    rw.line = toks[i].line;
                    rw.col = toks[i].col;
                    env.rewraps.push_back(std::move(rw));
                }
                continue;
            }

            // Typed / raw-u64 declarations: `T [&*] name [=({;]`.
            if (wk != kNone || txt == "uint64_t") {
                std::size_t d = n;
                while (d < fn.close && (isPunct(toks, d, "&") ||
                                        isPunct(toks, d, "*")))
                    d = skipComments(toks, d + 1);
                if (d < fn.close &&
                    toks[d].kind == TokKind::Ident) {
                    const std::size_t t = skipComments(toks, d + 1);
                    const bool decl =
                        isPunct(toks, t, "=") ||
                        isPunct(toks, t, "(") ||
                        isPunct(toks, t, "{") ||
                        isPunct(toks, t, ";");
                    if (decl && wk != kNone) {
                        env.typedKinds[toks[d].text] = wk;
                        continue;
                    }
                    if (decl && wk == kNone) {
                        U64Local lo;
                        lo.name = toks[d].text;
                        if (isPunct(toks, t, "=")) {
                            lo.initBegin = t + 1;
                            lo.initEnd =
                                scanToSemicolon(toks, t + 1,
                                                fn.close);
                        } else if (isPunct(toks, t, "(") ||
                                   isPunct(toks, t, "{")) {
                            lo.initBegin = t + 1;
                            lo.initEnd = std::min(
                                matchForward(toks, t), fn.close);
                        }
                        env.localSlot[lo.name] =
                            env.u64Locals.size();
                        env.u64Locals.push_back(std::move(lo));
                        continue;
                    }
                }
            }

            // Return expression.
            if (txt == "return") {
                ReturnExpr r;
                r.begin = i + 1;
                r.end = scanToSemicolon(toks, i + 1, fn.close);
                if (r.end > r.begin)
                    env.returns.push_back(r);
                continue;
            }

            // Call site with argument ranges. The wrapper ctors are
            // excluded above; their polymorphic u64 parameter is the
            // DEFINITIONAL kind boundary, owned by the rewrap rule.
            if (isPunct(toks, n, "(") && txt != "if" &&
                txt != "for" && txt != "while" && txt != "switch" &&
                txt != "catch" && txt != "sizeof") {
                const std::size_t close = matchForward(toks, n);
                if (close >= fn.close) {
                    i = n;
                    continue;
                }
                CallArgs ca;
                ca.callee = txt;
                std::size_t seg = n + 1;
                int depth = 0;
                for (std::size_t j = n + 1; j <= close; ++j) {
                    const bool at_end = j == close;
                    if (!at_end &&
                        toks[j].kind == TokKind::Punct) {
                        const std::string &t = toks[j].text;
                        if (t == "(" || t == "[" || t == "{")
                            ++depth;
                        else if (t == ")" || t == "]" || t == "}")
                            --depth;
                    }
                    if (!at_end && !(depth == 0 &&
                                     isPunct(toks, j, ",")))
                        continue;
                    if (j > seg)
                        ca.args.push_back({seg, j});
                    seg = j + 1;
                }
                if (!ca.args.empty())
                    env.calls.push_back(std::move(ca));
            }
        }
    }

    /** First ';' at this nesting level from @p i, group-skipping. */
    std::size_t scanToSemicolon(const std::vector<Token> &toks,
                                std::size_t i,
                                std::size_t limit) const
    {
        std::size_t j = i;
        while (j < limit && !isPunct(toks, j, ";")) {
            if (isPunct(toks, j, "(") || isPunct(toks, j, "{") ||
                isPunct(toks, j, "[")) {
                j = matchForward(toks, j) + 1;
                continue;
            }
            ++j;
        }
        return std::min(j, limit);
    }
};

} // anonymous namespace

std::unique_ptr<Pass>
makeAddrKindPass()
{
    return std::make_unique<AddrKindPass>();
}

} // namespace vic::analysis

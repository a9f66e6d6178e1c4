#include "analysis/diagnostics.hh"

#include <algorithm>

#include "common/logging.hh"

namespace vic::analysis
{
namespace
{

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

/** Parse one comment's text for "vic-lint: allow(<rule>)[: reason]".
 *  The marker must LEAD the comment (right after the // or slash-star
 *  opener) — prose that merely mentions the syntax, like this file's
 *  own documentation, is not a suppression.
 *  @return true when the marker is present (even if malformed). */
bool
parseAllow(const std::string &comment, std::string &rule,
           std::string &reason, bool &well_formed)
{
    const std::size_t content =
        comment.find_first_not_of("/*! \t");
    if (content == std::string::npos ||
        comment.compare(content, 9, "vic-lint:") != 0)
        return false;
    const std::size_t mark = content;
    well_formed = false;
    std::size_t p = comment.find("allow(", mark);
    if (p == std::string::npos)
        return true;
    p += 6;
    const std::size_t close = comment.find(')', p);
    if (close == std::string::npos)
        return true;
    rule = trim(comment.substr(p, close - p));
    if (rule.empty())
        return true;
    std::size_t r = close + 1;
    while (r < comment.size() &&
           (comment[r] == ' ' || comment[r] == '\t'))
        ++r;
    if (r >= comment.size() || comment[r] != ':')
        return true;  // reason separator missing -> undocumented
    std::string rest = comment.substr(r + 1);
    // Strip a block comment's trailing marker before trimming.
    const std::size_t endmark = rest.rfind("*/");
    if (endmark != std::string::npos)
        rest = rest.substr(0, endmark);
    reason = trim(rest);
    well_formed = !reason.empty();
    return true;
}

} // anonymous namespace

std::string
Diagnostic::render() const
{
    return format("%s:%u:%u: %s: %s", file.c_str(), line, col,
                  rule.c_str(), message.c_str());
}

void
Sink::collectSuppressions(const std::vector<SourceFile> &files)
{
    for (const SourceFile &f : files) {
        const std::vector<Token> &toks = f.tokens;
        for (std::size_t i = 0; i < toks.size(); ++i) {
            if (toks[i].kind != TokKind::Comment)
                continue;
            std::string rule, reason;
            bool well_formed = false;
            if (!parseAllow(toks[i].text, rule, reason, well_formed))
                continue;
            if (!well_formed) {
                Diagnostic d;
                d.rule = kRuleSuppressUndocumented;
                d.file = f.path;
                d.line = toks[i].line;
                d.col = toks[i].col;
                d.message =
                    "vic-lint suppression without a rule or reason: "
                    "use \"vic-lint: allow(<rule>): <reason>\"";
                diags.push_back(std::move(d));
                continue;
            }
            Suppression s;
            s.rule = rule;
            s.file = f.path;
            s.commentLine = toks[i].line;
            s.reason = reason;
            if (toks[i].firstOnLine) {
                // Covers the next non-comment token's line; stacked
                // suppression comments all reach the same code line.
                s.targetLine = toks[i].line;  // fallback: nothing after
                for (std::size_t j = i + 1; j < toks.size(); ++j) {
                    if (toks[j].kind == TokKind::Comment)
                        continue;
                    s.targetLine = toks[j].line;
                    break;
                }
            } else {
                s.targetLine = toks[i].line;
            }
            sups.push_back(std::move(s));
        }
    }
}

void
Sink::report(const std::string &rule, const std::string &file,
             std::uint32_t line, std::uint32_t col, std::string message)
{
    for (Suppression &s : sups) {
        if (s.rule == rule && s.file == file && s.targetLine == line) {
            s.used = true;
            return;
        }
    }
    Diagnostic d;
    d.rule = rule;
    d.file = file;
    d.line = line;
    d.col = col;
    d.message = std::move(message);
    diags.push_back(std::move(d));
}

void
Sink::finalize(const std::vector<std::string> &active_rules)
{
    for (const Suppression &s : sups) {
        if (s.used)
            continue;
        if (std::find(active_rules.begin(), active_rules.end(),
                      s.rule) == active_rules.end())
            continue;  // its pass did not run this time
        Diagnostic d;
        d.rule = kRuleSuppressUnused;
        d.file = s.file;
        d.line = s.commentLine;
        d.col = 1;
        d.message = format("suppression of '%s' matches no diagnostic "
                           "— delete it",
                           s.rule.c_str());
        diags.push_back(std::move(d));
    }
    std::sort(diags.begin(), diags.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.col != b.col)
                      return a.col < b.col;
                  return a.rule < b.rule;
              });
}

} // namespace vic::analysis

#include "analysis/diagnostics.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace vic::analysis
{

std::string
Diagnostic::render() const
{
    return format("%s:%u:%u: %s: %s", file.c_str(), line, col,
                  rule.c_str(), message.c_str());
}

void
Sink::report(const std::string &rule, const std::string &file,
             std::uint32_t line, std::uint32_t col, std::string message)
{
    Diagnostic d;
    d.rule = rule;
    d.file = file;
    d.line = line;
    d.col = col;
    d.message = std::move(message);
    diags.push_back(std::move(d));
}

void
Sink::finalize()
{
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

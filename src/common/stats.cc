#include "common/stats.hh"

#include <algorithm>

#include "common/logging.hh"

namespace vic
{

namespace
{

/** Counter names are artifact keys: lower-case dotted snake_case, so
 *  diffing and plotting never have to quote or normalise them. */
bool
validName(const std::string &name)
{
    return !name.empty() &&
           std::all_of(name.begin(), name.end(), [](char c) {
               return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                      c == '_' || c == '.';
           });
}

} // anonymous namespace

Counter &
StatSet::counter(const std::string &name)
{
    if (!validName(name))
        vic_panic("counter name '%s' is not [a-z0-9_.]+", name.c_str());
    auto [it, inserted] = counters.try_emplace(name, Counter::Key());
    if (!inserted)
        vic_panic("counter '%s' registered twice", name.c_str());
    return it->second;
}

std::uint64_t
StatSet::value(const std::string &name) const
{
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second.value();
}

std::map<std::string, std::uint64_t>
StatSet::snapshot() const
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, c] : counters)
        out.emplace_hint(out.end(), name, c.value());
    return out;
}

} // namespace vic

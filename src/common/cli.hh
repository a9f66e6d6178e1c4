/**
 * @file
 * Strict parsing of numeric command-line flags, shared by every tool
 * so each flag rejects malformed input the same way.
 */

#ifndef VIC_COMMON_CLI_HH
#define VIC_COMMON_CLI_HH

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <system_error>

namespace vic
{

/** Parse @p text as a whole decimal number in [@p lo, max of T];
 *  anything else (sign, suffix, overflow) exits 2 naming @p flag. */
template <typename T>
T
parseCount(const std::string &flag, const char *text, T lo)
{
    T value{};
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc() || ptr != end || value < lo) {
        std::fprintf(stderr,
                     "%s needs a whole number in [%llu, %llu], got "
                     "'%s'\n",
                     flag.c_str(), (unsigned long long)lo,
                     (unsigned long long)std::numeric_limits<T>::max(),
                     text);
        std::exit(2);
    }
    return value;
}

} // namespace vic

#endif // VIC_COMMON_CLI_HH

/**
 * @file
 * Whole-string number parsing for the command-line tools.
 *
 * strtod/strtoull/atoi stop at the first bad character and read
 * "abc" as 0, so a typo in a flag silently becomes a different run.
 * These accept a value only when every character of it is part of
 * the number, so sweep_cli, fuzz_campaign and mcube_report can name
 * the offending flag and exit 2 instead.
 */

#ifndef MCUBE_RUN_PARSE_NUMBER_HH
#define MCUBE_RUN_PARSE_NUMBER_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

namespace mcube::run
{

/** Parse all of @p s as a finite number. */
inline bool
parseNumber(const std::string &s, double &out)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtod(s.c_str(), &end);
    return !s.empty() && *end == '\0' && errno == 0 && std::isfinite(out);
}

/** Parse all of @p s as an unsigned decimal integer that fits @p T. */
template <class T>
bool
parseNumber(const std::string &s, T &out)
{
    if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (*end != '\0' || errno != 0
        || v > static_cast<unsigned long long>(
               std::numeric_limits<T>::max()))
        return false;
    out = static_cast<T>(v);
    return true;
}

} // namespace mcube::run

#endif // MCUBE_RUN_PARSE_NUMBER_HH

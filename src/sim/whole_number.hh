/**
 * @file
 * Strict parsing of the numbers that command-line flags, config
 * options and store records take. std::strtoul alone reads "abc" as
 * 0, "5s" as 5 and "-1" as the largest value, and std::strtod reads
 * " 0.5" as 0.5 and accepts "nan" and "inf"; a value parsed with
 * either silently runs with a number nobody asked for.
 */

#ifndef GENIE_SIM_WHOLE_NUMBER_HH
#define GENIE_SIM_WHOLE_NUMBER_HH

#include <cmath>
#include <concepts>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace genie
{

/**
 * Parse @p text as a whole decimal number that fits @p out's type:
 * digits only, with no sign, exponent, space or trailing junk.
 * @return false, leaving @p out unchanged, for anything else.
 */
template <std::unsigned_integral T>
bool
parseWholeNumber(const char *text, T &out)
{
    if (*text == '\0')
        return false;
    T v = 0;
    for (const char *p = text; *p; ++p) {
        if (*p < '0' || *p > '9')
            return false;
        const auto digit = static_cast<T>(*p - '0');
        if (v > (std::numeric_limits<T>::max() - digit) / 10)
            return false;
        v = static_cast<T>(v * 10 + digit);
    }
    out = v;
    return true;
}

/**
 * Parse @p text as a finite plain decimal number: digits, signs, a
 * point and an exponent only (no space, hex, inf or nan), all of it
 * consumed by std::strtod.
 * @return false, leaving @p out unchanged, for anything else.
 */
inline bool
parseDecimal(const char *text, double &out)
{
    if (*text == '\0' || text[std::strspn(text, "0123456789+-.eE")] != '\0')
        return false;
    char *end = nullptr;
    double v = std::strtod(text, &end);
    if (*end != '\0' || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

} // namespace genie

#endif // GENIE_SIM_WHOLE_NUMBER_HH

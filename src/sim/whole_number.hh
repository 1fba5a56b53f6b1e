/**
 * @file
 * Strict parsing of the whole numbers that command-line flags take.
 * std::strtoul alone reads "abc" as 0, "5s" as 5 and "-1" as the
 * largest value; a flag parsed with it silently runs with a value
 * nobody asked for.
 */

#ifndef GENIE_SIM_WHOLE_NUMBER_HH
#define GENIE_SIM_WHOLE_NUMBER_HH

#include <concepts>
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

} // namespace genie

#endif // GENIE_SIM_WHOLE_NUMBER_HH

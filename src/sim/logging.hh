/**
 * @file
 * Logging and error-reporting helpers, in the spirit of gem5's
 * base/logging.hh.
 *
 * - panic():  something happened that should never happen regardless of
 *             user input; a simulator bug. Aborts.
 * - fatal():  the simulation cannot continue because of a user error
 *             (bad configuration, invalid arguments). Throws FatalError
 *             so library users and tests can catch it.
 * - warn():   something may not be modeled as well as it could be.
 * - inform(): neutral status messages.
 */

#ifndef GENIE_SIM_LOGGING_HH
#define GENIE_SIM_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>

namespace genie
{

/** Exception thrown by fatal(): a user-caused, recoverable-by-caller
 * configuration or usage error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** printf-style formatting into a std::string. */
std::string vformat(const char *fmt, std::va_list ap);
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Append @p s to @p out escaped as the body of a JSON string: quotes,
 * backslashes and control characters; everything else passes
 * through. */
void appendJsonEscaped(std::string &out, std::string_view s);

/** Report a simulator bug and abort. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a user error by throwing FatalError. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report suspicious but non-fatal conditions on stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report neutral status messages on stdout. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Globally silence warn()/inform() (useful in large DSE sweeps). */
void setQuiet(bool quiet);
bool quiet();

} // namespace genie

/** Assert-like macro that survives NDEBUG builds and reports context. */
#define GENIE_ASSERT(cond, ...)                                            \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::genie::panic("assertion '%s' failed at %s:%d: %s", #cond,    \
                           __FILE__, __LINE__,                             \
                           ::genie::format(__VA_ARGS__).c_str());          \
        }                                                                  \
    } while (0)

#endif // GENIE_SIM_LOGGING_HH

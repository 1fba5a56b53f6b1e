#include "logging.hh"

#include <atomic>
#include <cstdlib>
#include <vector>

#include "thread_safety.hh"

namespace genie
{

namespace
{
std::atomic<bool> quietFlag GENIE_SHARED_OK(atomic quiet switch
                                            flipped by sweep drivers
                                            and tests){false};
} // namespace

std::string
vformat(const char *fmt, std::va_list ap)
{
    std::va_list ap_copy;
    va_copy(ap_copy, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (n < 0)
        return std::string(fmt);
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(n));
}

std::string
format(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string s = vformat(fmt, ap);
    va_end(ap);
    return s;
}

void
appendJsonEscaped(std::string &out, std::string_view s)
{
    for (char ch : s) {
        switch (ch) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20)
                out += format("\\u%04x", static_cast<unsigned>(ch));
            else
                out += ch;
        }
    }
}

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    throw FatalError(msg);
}

void
warn(const char *fmt, ...)
{
    if (quietFlag.load(std::memory_order_relaxed))
        return;
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const char *fmt, ...)
{
    if (quietFlag.load(std::memory_order_relaxed))
        return;
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

void
setQuiet(bool quiet)
{
    quietFlag.store(quiet, std::memory_order_relaxed);
}

bool
quiet()
{
    return quietFlag.load(std::memory_order_relaxed);
}

} // namespace genie

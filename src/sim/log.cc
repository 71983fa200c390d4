#include "sim/log.hh"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace dvfs {

namespace {

/** Format a va_list into a std::string. */
std::string
vstrprintf(const char *fmt, va_list ap)
{
    va_list ap_copy;
    va_copy(ap_copy, ap);
    int needed = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (needed < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

void
emit(const char *prefix, const char *fmt, va_list ap)
{
    std::string msg = vstrprintf(fmt, ap);
    std::fprintf(stderr, "%s%s\n", prefix, msg.c_str());
}

} // namespace

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit("panic: ", fmt, ap);
    va_end(ap);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit("fatal: ", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit("warn: ", fmt, ap);
    va_end(ap);
}

std::string
strprintf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrprintf(fmt, ap);
    va_end(ap);
    return s;
}

} // namespace dvfs

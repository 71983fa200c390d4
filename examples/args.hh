/**
 * @file
 * Strict positional-argument parsing for the examples.
 *
 * A frequency is a whole number of MHz in [1, 100000], written in
 * digits only; a percentage is a finite number in [0, 100] with no
 * leading blanks. Neither may have anything trailing. Anything else,
 * or one argument too many, prints what was wrong and the example's
 * usage line and exits with status 2 before any simulation starts.
 */

#ifndef DVFS_EXAMPLES_ARGS_HH
#define DVFS_EXAMPLES_ARGS_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "dvfs.hh"

namespace dvfs::examples {

/** Print what was wrong and @p usage, then exit with status 2. */
[[noreturn]] inline void
badArgs(const char *usage, const std::string &what)
{
    std::cerr << what << "\n" << usage;
    std::exit(2);
}

/** Exit via badArgs() if more than @p max positional arguments. */
inline void
requireAtMost(int argc, int max, const char *usage)
{
    if (argc - 1 > max)
        badArgs(usage, "too many arguments");
}

/** argv[@p i] in MHz, or @p def when absent. */
inline Frequency
mhzArg(int argc, char **argv, int i, std::uint32_t def, const char *usage)
{
    if (i >= argc)
        return Frequency::mhz(def);
    const char *text = argv[i];
    char *end = nullptr;
    errno = 0;
    const long v = std::strtol(text, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
        errno == ERANGE || v < 1 || v > 100'000) {
        badArgs(usage, std::string("bad frequency '") + text +
                           "': expected whole MHz in [1, 100000]");
    }
    return Frequency::mhz(static_cast<std::uint32_t>(v));
}

/** argv[@p i] as a percentage in [0, 100], or @p def when absent. */
inline double
percentArg(int argc, char **argv, int i, double def, const char *usage)
{
    if (i >= argc)
        return def;
    const char *text = argv[i];
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || std::isspace(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || !std::isfinite(v) || v < 0.0 || v > 100.0) {
        badArgs(usage, std::string("bad percentage '") + text +
                           "': expected a number in [0, 100]");
    }
    return v;
}

} // namespace dvfs::examples

#endif // DVFS_EXAMPLES_ARGS_HH

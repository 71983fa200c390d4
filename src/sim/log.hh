/**
 * @file
 * Logging and error-reporting helpers.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (simulator bugs), fatal() is for user errors (bad
 * configuration); warn() reports a condition without stopping the
 * simulation. Log output goes to stderr so harness table output on
 * stdout stays machine-readable.
 */

#ifndef DVFS_SIM_LOG_HH
#define DVFS_SIM_LOG_HH

#include <cstdarg>
#include <string>

namespace dvfs {

/**
 * Report an internal simulator bug and abort.
 *
 * Use for conditions that should be impossible regardless of user
 * input. Never returns.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report a user/configuration error and exit with status 1.
 *
 * Use for conditions that are the caller's fault. Never returns.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Emit a warning on stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Internal assertion that is active in all build types.
 *
 * Unlike <cassert>, these checks guard simulator invariants that must
 * hold even in release builds; a silent corruption would invalidate
 * every downstream measurement.
 */
#define DVFS_ASSERT(cond, msg)                                          \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::dvfs::panic("assertion failed at %s:%d: %s (%s)",         \
                          __FILE__, __LINE__, #cond, msg);              \
        }                                                               \
    } while (0)

} // namespace dvfs

#endif // DVFS_SIM_LOG_HH

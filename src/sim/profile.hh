/**
 * @file
 * Always-built sampling profiler for the simulator's hot path.
 *
 * Scoped RAII markers (DVFS_PROFILE_SCOPE) tag the calling thread with
 * the coarse subsystem it is executing — event kernel, core model,
 * cache hierarchy, DRAM, OS layer. A scope is one thread-local store
 * on entry and one on exit: no clock reads, no registry, no counts.
 *
 * Between start() and stop() an ITIMER_PROF timer raises SIGPROF once
 * per interval of process CPU time; the kernel delivers it to the
 * thread that consumed the tick, and the handler adds one sample to
 * that thread's current subsystem. The resulting histogram is a
 * statistical CPU-time split whose cost does not depend on how often
 * scopes are entered, so the markers stay compiled into every build.
 *
 * The profiler only ever reads the tag; nothing flows back into the
 * simulation, so a profiled run reproduces the unprofiled fingerprint
 * bit-for-bit (test_profile.cc, and CI's profiled sweep_bench step).
 */

#ifndef DVFS_SIM_PROFILE_HH
#define DVFS_SIM_PROFILE_HH

#include <array>
#include <atomic>
#include <cstdint>

namespace dvfs::sim::prof {

/** Subsystems CPU samples are attributed to. */
enum class Subsystem : unsigned {
    Kernel,  ///< event queue: schedule/dispatch machinery
    Core,    ///< core model: instruction/cluster/burst execution
    Cache,   ///< cache hierarchy walks
    Dram,    ///< DRAM bank/bus model
    Os,      ///< scheduler, futexes, syscalls, managed runtime
    Other,   ///< anything outside an instrumented scope
    Count
};

inline constexpr unsigned kSubsystemCount =
    static_cast<unsigned>(Subsystem::Count);

/** Printable subsystem name ("kernel", "core", ...). */
const char *subsystemName(Subsystem s);

/** SIGPROF sample counts per subsystem over one start()/stop(). */
struct Snapshot {
    std::array<std::uint64_t, kSubsystemCount> samples{};

    std::uint64_t
    total() const
    {
        std::uint64_t t = 0;
        for (std::uint64_t n : samples)
            t += n;
        return t;
    }
};

namespace detail {

/**
 * The calling thread's current subsystem. Constant-initialised and
 * initial-exec, so the SIGPROF handler reads it without a TLS wrapper
 * call or a lazy allocation.
 */
inline constinit thread_local std::atomic<Subsystem> tag
    __attribute__((tls_model("initial-exec"))){Subsystem::Other};

} // namespace detail

/** RAII subsystem scope: tags the thread with @p s until destroyed. */
class Scope
{
  public:
    explicit Scope(Subsystem s)
        : _prev(detail::tag.load(std::memory_order_relaxed))
    {
        detail::tag.store(s, std::memory_order_relaxed);
    }

    ~Scope() { detail::tag.store(_prev, std::memory_order_relaxed); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Subsystem _prev;
};

/**
 * Zero the sample counts and arm the SIGPROF timer. Profiling is
 * process-wide: starting while already started is fatal.
 */
void start();

/** Disarm the timer and return the samples taken since start(). */
Snapshot stop();

} // namespace dvfs::sim::prof

#define DVFS_PROFILE_CAT2(a, b) a##b
#define DVFS_PROFILE_CAT(a, b) DVFS_PROFILE_CAT2(a, b)
/** Attribute the rest of the enclosing block to subsystem @p s. */
#define DVFS_PROFILE_SCOPE(s)                                           \
    ::dvfs::sim::prof::Scope DVFS_PROFILE_CAT(dvfs_prof_scope_,         \
                                              __LINE__)(                \
        ::dvfs::sim::prof::Subsystem::s)

#endif // DVFS_SIM_PROFILE_HH

#include "sim/profile.hh"

#include <atomic>
#include <csignal>
#include <sys/time.h>

#include "sim/log.hh"

namespace dvfs::sim::prof {

namespace {

/** CPU time between samples. The kernel rounds it up to its tick. */
constexpr suseconds_t kIntervalUs = 1000;

std::atomic<std::uint64_t> counts[kSubsystemCount];
std::atomic<bool> running{false};

static_assert(std::atomic<std::uint64_t>::is_always_lock_free);
static_assert(__atomic_always_lock_free(sizeof(Subsystem), nullptr));

void
onSigprof(int)
{
    const auto s = static_cast<unsigned>(detail::loadTag());
    counts[s].fetch_add(1, std::memory_order_relaxed);
}

void
armTimer(suseconds_t us)
{
    itimerval it{};
    it.it_interval.tv_usec = us;
    it.it_value.tv_usec = us;
    if (setitimer(ITIMER_PROF, &it, nullptr) != 0)
        fatal("profiler: setitimer(ITIMER_PROF) failed");
}

} // namespace

const char *
subsystemName(Subsystem s)
{
    switch (s) {
      case Subsystem::Kernel: return "kernel";
      case Subsystem::Core: return "core";
      case Subsystem::Cache: return "cache";
      case Subsystem::Dram: return "dram";
      case Subsystem::Os: return "os";
      case Subsystem::Fastpath: return "fastpath";
      case Subsystem::Wl: return "wl";
      case Subsystem::Digest: return "digest";
      case Subsystem::Record: return "record";
      case Subsystem::Other: return "other";
      case Subsystem::Count: break;
    }
    return "?";
}

void
start()
{
    if (running.exchange(true))
        fatal("profiler: start() while already started");
    for (auto &c : counts)
        c.store(0, std::memory_order_relaxed);
    // The handler stays installed after stop(): a SIGPROF already in
    // flight when the timer is disarmed must not take the default
    // (terminating) action.
    struct sigaction sa{};
    sa.sa_handler = onSigprof;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0)
        fatal("profiler: sigaction(SIGPROF) failed");
    armTimer(kIntervalUs);
}

Snapshot
stop()
{
    armTimer(0);
    Snapshot snap;
    for (unsigned i = 0; i < kSubsystemCount; ++i)
        snap.samples[i] = counts[i].load(std::memory_order_relaxed);
    running.store(false);
    return snap;
}

} // namespace dvfs::sim::prof

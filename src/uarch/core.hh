/**
 * @file
 * Interval-style out-of-order core model.
 *
 * Each core executes work items (see work.hh) for whatever thread the
 * OS schedules on it and charges the elapsed time plus hardware
 * counter updates to that thread's PerfCounters block.
 *
 * The model follows Sniper's interval philosophy: plain computation
 * retires at a base IPC in the core clock domain; a miss cluster
 * elapses max(memory critical path, overlapped compute); a store burst
 * is paced by the faster of store dispatch (core clock) and store
 * queue drain (memory-side, wall-clock) with explicit tracking of the
 * time the store queue is full.
 *
 * Alongside the ground-truth timing the core maintains the three
 * DVFS-counter estimates the paper discusses (stall / leading loads /
 * CRIT) plus the store-queue-full counter for BURST — each computed
 * the way the corresponding proposed hardware would see events, blind
 * spots included.
 */

#ifndef DVFS_UARCH_CORE_HH
#define DVFS_UARCH_CORE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/time.hh"
#include "uarch/cache.hh"
#include "uarch/freq_domain.hh"
#include "uarch/perf_counters.hh"
#include "uarch/work.hh"

namespace dvfs::uarch {

/** Static configuration of one core. */
struct CoreConfig {
    double baseIpc = 2.0;           ///< retire rate for plain compute
    std::uint32_t robEntries = 192; ///< reorder buffer (Haswell-like)
    std::uint32_t sqEntries = 42;   ///< store queue entries
    /** Stores the core can dispatch into the SQ per cycle. */
    double storeDispatchPerCycle = 1.0;
    /** Core cycles for an uncontended atomic RMW (lock fast path). */
    std::uint32_t atomicCycles = 20;
};

/**
 * One out-of-order core.
 *
 * The core itself is stateless with respect to *which* thread runs on
 * it (the OS virtualizes counters); it does keep microarchitectural
 * state that legitimately persists across context switches: the store
 * queue drain horizon.
 */
class CoreModel
{
  public:
    /**
     * @param id     Core number (selects the private caches).
     * @param cfg    Core parameters.
     * @param mem    Shared cache hierarchy.
     * @param domain Core clock domain (chip-wide DVFS).
     */
    CoreModel(std::uint32_t id, const CoreConfig &cfg, CacheHierarchy &mem,
              const FreqDomain &domain);

    /** Core number. */
    std::uint32_t id() const { return _id; }

    /**
     * Execute straight-line compute.
     * @return Completion tick.
     */
    Tick executeCompute(const ComputeSpec &spec, Tick start,
                        PerfCounters &pc);

    /** Execute a long-latency miss cluster. @return completion tick. */
    Tick executeCluster(const MissClusterSpec &spec, Tick start,
                        PerfCounters &pc);

    /** Execute a store burst. @return completion tick. */
    Tick executeStoreBurst(const StoreBurstSpec &spec, Tick start,
                           PerfCounters &pc);

    /**
     * Execute an atomic read-modify-write (lock acquisition/release).
     *
     * @param contended If true, the line is owned by another core and
     *                  a fixed-time cross-core transfer is charged (in
     *                  the uncore domain, i.e. non-scaling — and
     *                  invisible to all three DVFS counters, which is
     *                  faithful to real hardware).
     * @return Completion tick.
     */
    Tick atomicRmw(Tick start, bool contended, PerfCounters &pc);

    const CoreConfig &config() const { return _cfg; }

    /** Current core frequency. */
    Frequency frequency() const { return _domain.frequency(); }

  private:
    /** Ticks to retire @p n instructions at the current frequency. */
    Tick instrTicks(double n, double ipc_scale = 1.0) const;

    /** One DRAM miss's (issue, completion) pair, for Leading Loads. */
    struct MissWindow {
        Tick issue;
        Tick completion;
    };

    std::uint32_t _id;
    CoreConfig _cfg;
    CacheHierarchy &_mem;
    const FreqDomain &_domain;

    /**
     * Scratch arena for executeCluster's per-cluster DRAM-miss list.
     * Cleared (capacity kept) at the top of each cluster, so the
     * buffer is allocated once per core and reused for the life of the
     * run instead of malloc'd per miss cluster. Valid only during one
     * executeCluster call; never read across calls.
     */
    std::vector<MissWindow> _missScratch;

    /**
     * Store-queue occupancy: drain completion tick and store count of
     * each line still occupying SQ entries, oldest first.
     */
    std::deque<std::pair<Tick, std::uint32_t>> _sqPending;
    std::uint32_t _sqOccupied = 0;
};

} // namespace dvfs::uarch

#endif // DVFS_UARCH_CORE_HH

/**
 * @file
 * Reference per-line store walk.
 *
 * This is the store path as it was before store bursts walked the tags
 * once per burst: CacheHierarchy::storeLine, one call per burst line,
 * driven by the old CoreModel::executeStoreBurst loop over a
 * std::deque store queue. It is kept as an executable specification
 * of the BURST timing contract: the same tag transitions, SQ release
 * ticks, write-port horizon and DRAM write sequence, line by line. The
 * differential test (tests/test_store_burst_differential.cc) drives a
 * seeded script through this walk and through the production
 * CoreModel and requires identical ticks, counters, tag state and
 * DRAM traffic.
 *
 * Not used on any simulation path; it lives under tests/ and only
 * the test binary builds it. It reaches the hierarchy through the
 * same public store-path hooks the production burst loop uses.
 */

#ifndef DVFS_TESTS_REFERENCE_STORE_WALK_HH
#define DVFS_TESTS_REFERENCE_STORE_WALK_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <utility>

#include "sim/time.hh"
#include "uarch/cache.hh"
#include "uarch/core.hh"
#include "uarch/freq_domain.hh"
#include "uarch/perf_counters.hh"
#include "uarch/work.hh"

namespace dvfs::uarch {

/**
 * Perform a line-filling store from a store burst.
 *
 * If the line is on chip it drains at cache speed. On a miss the line
 * is handled by the core's write port, and a dirty L3 victim consumes
 * DRAM write bandwidth.
 *
 * @return Tick at which the store structurally completes and its SQ
 *         entries can be released.
 */
inline Tick
referenceStoreLine(CacheHierarchy &mem, std::uint32_t core,
                   std::uint64_t addr, Tick issue)
{
    // Install dirty in the private levels so subsequent reads of
    // freshly initialized memory hit.
    auto r1 = mem.l1d(core).access(addr, true);
    if (r1.dirtyVictim) {
        auto r = mem.l2(core).access(r1.victim, true);
        if (r.dirtyVictim)
            mem.l3().access(r.victim, true);
    }

    auto r3 = mem.l3().access(addr, true);
    // The overlay's write clock advances for every detailed store
    // line; an L3 hit or a warm line drains at cache speed.
    const bool on_chip =
        mem.warmEnabled() ? mem.warmStoreOnChip(addr, r3.hit) : r3.hit;
    if (on_chip)
        return issue;

    if (r3.dirtyVictim)
        mem.dram().write(r3.victim, issue);
    else if (mem.warmEnabled())
        mem.warmVictimWrite(addr, r3, issue);
    Tick &port = mem.writePort(core);
    port = std::max(port, issue) + mem.writeDrainTicks();
    return port;
}

/**
 * The store-burst half of the old CoreModel: per-line SQ backpressure
 * over a std::deque, one referenceStoreLine() call per line.
 */
class ReferenceStoreCore
{
  public:
    ReferenceStoreCore(std::uint32_t id, const CoreConfig &cfg,
                       CacheHierarchy &mem, const FreqDomain &domain)
        : _id(id), _cfg(cfg), _mem(mem), _domain(domain)
    {
    }

    /** Execute a store burst. @return completion tick. */
    Tick
    executeStoreBurst(const StoreBurstSpec &spec, Tick start,
                      PerfCounters &pc)
    {
        if (spec.lines == 0)
            return start;

        const Frequency freq = _domain.frequency();
        const double store_period_cycles =
            1.0 / _cfg.storeDispatchPerCycle;
        const Tick line_dispatch =
            freq.cyclesToTicks(store_period_cycles * spec.storesPerLine);
        const std::uint32_t spl =
            std::max<std::uint32_t>(1, spec.storesPerLine);

        Tick t = start;
        Tick sq_full = 0;

        for (std::uint32_t i = 0; i < spec.lines; ++i) {
            // Retire drained lines.
            while (!_sqPending.empty() && _sqPending.front().first <= t) {
                _sqOccupied -= _sqPending.front().second;
                _sqPending.pop_front();
            }
            // Block dispatch while the SQ cannot take this line's
            // stores.
            while (_sqOccupied + spl > _cfg.sqEntries &&
                   !_sqPending.empty()) {
                Tick drain = _sqPending.front().first;
                if (drain > t) {
                    sq_full += drain - t;
                    t = drain;
                }
                _sqOccupied -= _sqPending.front().second;
                _sqPending.pop_front();
            }
            // Dispatch the line's stores (core-clock paced).
            t += line_dispatch;
            std::uint64_t addr =
                spec.baseAddr + static_cast<std::uint64_t>(i) * 64;
            Tick done = referenceStoreLine(_mem, _id, addr, t);
            if (done > t) {
                _sqPending.emplace_back(done, spl);
                _sqOccupied += spl;
            }
        }

        Tick elapsed = t - start;
        pc.busyTime += elapsed;
        pc.instructions += static_cast<std::uint64_t>(spec.lines) * spl;
        pc.storeBursts += 1;
        pc.storeLines += spec.lines;
        pc.sqFullTime += sq_full;
        pc.trueMemTime += sq_full;
        pc.computeTime += elapsed - sq_full;
        return t;
    }

  private:
    std::uint32_t _id;
    CoreConfig _cfg;
    CacheHierarchy &_mem;
    const FreqDomain &_domain;
    std::deque<std::pair<Tick, std::uint32_t>> _sqPending;
    std::uint32_t _sqOccupied = 0;
};

} // namespace dvfs::uarch

#endif // DVFS_TESTS_REFERENCE_STORE_WALK_HH

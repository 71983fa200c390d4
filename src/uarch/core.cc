#include "uarch/core.hh"

#include <algorithm>

#include "sim/log.hh"
#include "sim/profile.hh"

namespace dvfs::uarch {

CoreModel::CoreModel(std::uint32_t id, const CoreConfig &cfg,
                     CacheHierarchy &mem, const FreqDomain &domain)
    : _id(id), _cfg(cfg), _mem(mem), _domain(domain)
{
    if (_cfg.baseIpc <= 0.0 || _cfg.storeDispatchPerCycle <= 0.0)
        fatal("core %u: IPC and store dispatch rate must be positive", id);
    DVFS_ASSERT(id < mem.cores(), "core index out of range");
    _sqRing.resize(static_cast<std::size_t>(_cfg.sqEntries) + 1);
}

Tick
CoreModel::instrTicks(double n, double ipc_scale) const
{
    double cycles = n / (_cfg.baseIpc * ipc_scale);
    return _domain.frequency().cyclesToTicks(cycles);
}

Tick
CoreModel::executeCompute(const ComputeSpec &spec, Tick start,
                          PerfCounters &pc)
{
    DVFS_PROFILE_SCOPE(Core);
    Tick t_compute = instrTicks(static_cast<double>(spec.instructions),
                                spec.ipcScale);
    // Medium-locality loads: L2 hits scale with the core clock, L3
    // hits are uncore-clocked wall time. About half of each hit
    // latency is assumed hidden by the out-of-order window.
    Tick t_l2 = static_cast<Tick>(
        spec.l2Loads * (_mem.l2HitTicks(_domain.frequency()) / 2));
    Tick t_l3 = static_cast<Tick>(spec.l3Loads * (_mem.l3HitTicks() / 2));

    Tick elapsed = t_compute + t_l2 + t_l3;

    pc.busyTime += elapsed;
    pc.instructions += spec.instructions;
    pc.computeTime += t_compute + t_l2;  // both scale with frequency
    pc.trueMemTime += t_l3;
    pc.l2Hits += spec.l2Loads;
    pc.l3Hits += spec.l3Loads;
    return start + elapsed;
}

Tick
CoreModel::executeCluster(const MissClusterSpec &spec, Tick start,
                          PerfCounters &pc)
{
    DVFS_PROFILE_SCOPE(Core);
    DVFS_ASSERT(!spec.lite(), "executing a lite cluster spec");
    const Frequency freq = _domain.frequency();

    // Record per-DRAM-miss (issue, completion) pairs for the Leading
    // Loads estimate, in the core's reusable scratch arena.
    std::vector<MissWindow> &dram_misses = _missScratch;
    dram_misses.clear();

    Tick mem_end = start;
    Tick crit = 0;  // CRIT: max over chains of accumulated DRAM latency

    for (std::uint32_t c = 0; c < spec.chains; ++c) {
        Tick t = start;
        Tick chain_dram = 0;
        for (std::uint64_t addr : spec.chain(c)) {
            auto out = _mem.load(_id, addr, t, freq);
            switch (out.level) {
              case HitLevel::L1:
                pc.l1Hits += 1;
                break;
              case HitLevel::L2:
                pc.l2Hits += 1;
                break;
              case HitLevel::L3:
                pc.l3Hits += 1;
                break;
              case HitLevel::Dram:
                pc.dramLoads += 1;
                chain_dram += out.memLatency;
                dram_misses.push_back(
                    MissWindow{t, out.completion});
                break;
            }
            t = out.completion;
        }
        mem_end = std::max(mem_end, t);
        crit = std::max(crit, chain_dram);
    }

    // Leading Loads: walk DRAM misses in issue order; a miss that
    // begins while another is outstanding is shadowed and contributes
    // nothing, regardless of its actual (possibly longer) latency.
    std::sort(dram_misses.begin(), dram_misses.end(),
              [](const MissWindow &a, const MissWindow &b) {
                  if (a.issue != b.issue)
                      return a.issue < b.issue;
                  return a.completion < b.completion;
              });
    Tick leading = 0;
    Tick window_end = 0;
    for (const auto &m : dram_misses) {
        if (m.issue >= window_end) {
            leading += m.completion - m.issue;
            window_end = m.completion;
        } else {
            window_end = std::max(window_end, m.completion);
        }
    }

    Tick t_cpu = instrTicks(static_cast<double>(spec.overlapInstructions));
    Tick elapsed = std::max(mem_end - start, t_cpu);

    pc.busyTime += elapsed;
    pc.instructions += spec.overlapInstructions;
    pc.missClusters += 1;
    pc.computeTime += std::min(t_cpu, elapsed);
    pc.trueMemTime += elapsed > t_cpu ? elapsed - t_cpu : 0;
    pc.critNonscaling += crit;
    pc.leadingNonscaling += leading;
    pc.stallNonscaling += elapsed > t_cpu ? elapsed - t_cpu : 0;
    return start + elapsed;
}

Tick
CoreModel::executeStoreBurst(const StoreBurstSpec &spec, Tick start,
                             PerfCounters &pc)
{
    // One scope for the whole burst: its host time is the tag walk of
    // every line, and the SQ bookkeeping around it is charged here too.
    DVFS_PROFILE_SCOPE(Cache);
    if (spec.lines == 0)
        return start;

    const Frequency freq = _domain.frequency();
    const double store_period_cycles = 1.0 / _cfg.storeDispatchPerCycle;
    const Tick line_dispatch =
        freq.cyclesToTicks(store_period_cycles * spec.storesPerLine);
    const std::uint32_t spl = std::max<std::uint32_t>(1, spec.storesPerLine);

    // Nothing else runs during a burst, so the per-core handles and
    // the overlay switch hold for every line.
    Cache &l1 = _mem.l1d(_id);
    Cache &l2 = _mem.l2(_id);
    Cache &l3 = _mem.l3();
    Dram &dram = _mem.dram();
    Tick &port = _mem.writePort(_id);
    const Tick drain_ticks = _mem.writeDrainTicks();
    const bool warm = _mem.warmEnabled();
    const std::uint32_t ring = static_cast<std::uint32_t>(_sqRing.size());

    auto retire_head = [&] {
        _sqOccupied -= _sqRing[_sqHead].stores;
        _sqHead = _sqHead + 1 == ring ? 0 : _sqHead + 1;
        _sqLines -= 1;
    };

    Tick t = start;
    Tick sq_full = 0;

    for (std::uint32_t i = 0; i < spec.lines; ++i) {
        // Retire drained lines.
        while (_sqLines != 0 && _sqRing[_sqHead].drain <= t)
            retire_head();
        // Block dispatch while the SQ cannot take this line's stores.
        while (_sqOccupied + spl > _cfg.sqEntries && _sqLines != 0) {
            const Tick drain = _sqRing[_sqHead].drain;
            if (drain > t) {
                sq_full += drain - t;
                t = drain;
            }
            retire_head();
        }
        // Dispatch the line's stores (core-clock paced).
        t += line_dispatch;

        // Hand the line to the memory system. Install it dirty in the
        // private levels so later reads of freshly initialized memory
        // hit; a dirty L1 victim folds into L2, a dirty L2 victim into
        // L3.
        const std::uint64_t addr =
            spec.baseAddr + static_cast<std::uint64_t>(i) * 64;
        const Cache::Result r1 = l1.access(addr, true);
        if (r1.dirtyVictim) {
            const Cache::Result r2 = l2.access(r1.victim, true);
            // A dirty L3 line this install evicts is counted as an L3
            // writeback but never written to DRAM, unlike in load().
            // Every pinned digest includes that: writing it is a
            // deliberate re-pin (DESIGN.md section 9).
            if (r2.dirtyVictim)
                l3.access(r2.victim, true);
        }
        const Cache::Result r3 = l3.access(addr, true);
        // Line owned on chip: the store drains at cache speed, i.e.
        // its SQ entries are released structurally immediately.
        if (warm ? _mem.warmStoreOnChip(addr, r3.hit) : r3.hit)
            continue;

        // Store miss: the line allocates without fetching
        // (write-combined zeroing/copying), but its SQ entries are
        // held until the core's write port — the limited
        // line-fill-buffer pipeline draining the miss and the
        // displaced victim — accepts the line. The port runs at
        // memory speed (wall clock), which is what makes sustained
        // store bursts drain-limited and back up the SQ at every DVFS
        // setting (Section III-D). A dirty victim additionally
        // consumes DRAM write bandwidth (and disturbs banks that reads
        // share).
        if (r3.dirtyVictim)
            dram.write(r3.victim, t);
        else if (warm)
            _mem.warmVictimWrite(addr, r3, t);
        port = std::max(port, t) + drain_ticks;
        if (port > t) {
            DVFS_ASSERT(_sqLines < ring, "store-queue ring overflow");
            const std::uint32_t tail =
                _sqHead + _sqLines < ring ? _sqHead + _sqLines
                                          : _sqHead + _sqLines - ring;
            _sqRing[tail] = SqLine{port, spl};
            _sqLines += 1;
            _sqOccupied += spl;
        }
    }

    Tick elapsed = t - start;
    pc.busyTime += elapsed;
    // Roughly one micro-op per store retires.
    pc.instructions += static_cast<std::uint64_t>(spec.lines) * spl;
    pc.storeBursts += 1;
    pc.storeLines += spec.lines;
    pc.sqFullTime += sq_full;
    pc.trueMemTime += sq_full;
    pc.computeTime += elapsed - sq_full;
    return t;
}

Tick
CoreModel::atomicRmw(Tick start, bool contended, PerfCounters &pc)
{
    Tick elapsed = _domain.frequency().cyclesToTicks(_cfg.atomicCycles);
    if (contended) {
        // Cross-core line transfer through the shared L3: fixed-time
        // (uncore) cost, invisible to the DVFS counters.
        elapsed += _mem.l3HitTicks();
        pc.trueMemTime += _mem.l3HitTicks();
    }
    pc.busyTime += elapsed;
    pc.instructions += _cfg.atomicCycles;  // approx: 1 IPC through RMW
    pc.computeTime += _domain.frequency().cyclesToTicks(_cfg.atomicCycles);
    return start + elapsed;
}

} // namespace dvfs::uarch

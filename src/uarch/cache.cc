#include "uarch/cache.hh"

#include <algorithm>
#include <bit>

#include "sim/log.hh"
#include "sim/profile.hh"

namespace dvfs::uarch {

const char *
hitLevelName(HitLevel level)
{
    switch (level) {
      case HitLevel::L1: return "L1";
      case HitLevel::L2: return "L2";
      case HitLevel::L3: return "L3";
      case HitLevel::Dram: return "DRAM";
    }
    return "?";
}

namespace {

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

Cache::Cache(std::string name, const CacheConfig &cfg)
    : _name(std::move(name)), _cfg(cfg)
{
    if (_cfg.lineBytes == 0 || !isPow2(_cfg.lineBytes))
        fatal("cache '%s': line size must be a power of two", _name.c_str());
    if (_cfg.assoc == 0)
        fatal("cache '%s': associativity must be positive", _name.c_str());
    if (_cfg.assoc > 16)
        fatal("cache '%s': associativity above 16 does not fit the "
              "per-set recency word", _name.c_str());
    std::uint64_t lines = _cfg.sizeBytes / _cfg.lineBytes;
    if (lines == 0 || lines % _cfg.assoc != 0)
        fatal("cache '%s': size/assoc/line geometry does not divide",
              _name.c_str());
    _numSets = static_cast<std::uint32_t>(lines / _cfg.assoc);
    if (!isPow2(_numSets))
        fatal("cache '%s': set count must be a power of two", _name.c_str());
    _lineShift = static_cast<std::uint32_t>(
        std::countr_zero(static_cast<std::uint64_t>(_cfg.lineBytes)));
    _setBits = static_cast<std::uint32_t>(
        std::countr_zero(static_cast<std::uint64_t>(_numSets)));
    _meta.assign(static_cast<std::size_t>(_numSets) * _cfg.assoc, 0);
    _order.assign(_numSets, identityOrder(_cfg.assoc));
}

bool
Cache::probe(std::uint64_t addr) const
{
    const std::uint32_t set = setIndex(addr);
    const std::uint64_t tag64 = tagOf(addr);
    if (tag64 >> (32 - kWayTagShift))
        return false;  // unpackable tags are never resident
    const std::uint32_t *meta =
        _meta.data() + static_cast<std::size_t>(set) * _cfg.assoc;
    const std::uint32_t want =
        (static_cast<std::uint32_t>(tag64) << kWayTagShift) | kWayDirty |
        kWayValid;
    for (std::uint32_t w = 0; w < _cfg.assoc; ++w) {
        if ((meta[w] | kWayDirty) == want)
            return true;
    }
    return false;
}

void
Cache::reset()
{
    std::fill(_meta.begin(), _meta.end(), 0u);
    std::fill(_order.begin(), _order.end(), identityOrder(_cfg.assoc));
    _hits = _misses = _writebacks = 0;
}

CacheHierarchy::CacheHierarchy(std::uint32_t cores,
                               const HierarchyConfig &cfg, Dram &dram,
                               const FreqDomain &uncore)
    : _cfg(cfg), _dram(dram), _uncore(uncore),
      _l3("L3", cfg.l3)
{
    if (cores == 0)
        fatal("cache hierarchy needs at least one core");
    _l1d.reserve(cores);
    _l2.reserve(cores);
    for (std::uint32_t c = 0; c < cores; ++c) {
        _l1d.emplace_back(strprintf("L1D.%u", c), cfg.l1d);
        _l2.emplace_back(strprintf("L2.%u", c), cfg.l2);
    }
    _writePortFreeAt.assign(cores, 0);
    _writeDrainTicks = nsToTicks(_cfg.writeDrainNs);
}

Tick
CacheHierarchy::l2HitTicks(Frequency core_freq) const
{
    if (core_freq != _l2TickFreq) {
        _l2TickFreq = core_freq;
        _l2TickCache = core_freq.cyclesToTicks(_cfg.l2.latencyCycles);
    }
    return _l2TickCache;
}

Tick
CacheHierarchy::l3HitTicks() const
{
    const Frequency f = _uncore.frequency();
    if (f != _l3TickFreq) {
        _l3TickFreq = f;
        _l3TickCache = f.cyclesToTicks(_cfg.l3.latencyCycles);
    }
    return _l3TickCache;
}

void
CacheHierarchy::enableWarmOverlay()
{
    _warmEnabled = true;
    _warmLineShift = static_cast<std::uint32_t>(
        std::countr_zero(static_cast<std::uint64_t>(_cfg.l3.lineBytes)));
    // Three quarters of the L3: the real cache splits capacity
    // between the write stream and load-installed lines (mutator
    // working set, GC trace fronts), so a written line's expected
    // residency is somewhat under one full L3 of younger installs.
    _warmCapLines = _cfg.l3.sizeBytes / _cfg.l3.lineBytes * 3 / 4;
    _warmL3Lines = _cfg.l3.sizeBytes / _cfg.l3.lineBytes;
}

bool
CacheHierarchy::warmVictimDue()
{
    if (_warmRanges.empty())
        return false;
    // Live coverage: lines still warm across all non-stale ranges,
    // saturated at one L3 capacity. With the default geometry a
    // single gap writes more than an L3 of lines, so after the first
    // gap this sits at the cap; during startup detail it is zero and
    // no synthetic pressure is emitted (exact-equivalent warmup).
    std::uint64_t coverage = 0;
    for (auto it = _warmRanges.rbegin(); it != _warmRanges.rend(); ++it) {
        if (_warmWritten - it->stamp > _warmCapLines)
            break;
        coverage += it->last - it->first;
        if (coverage >= _warmL3Lines) {
            coverage = _warmL3Lines;
            break;
        }
    }
    _warmDebt += coverage;
    if (_warmDebt < _warmL3Lines)
        return false;
    _warmDebt -= _warmL3Lines;
    return true;
}

void
CacheHierarchy::warmLines(std::uint64_t baseAddr, std::uint32_t lines)
{
    if (!_warmEnabled || lines == 0)
        return;
    const std::uint64_t first = baseAddr >> _warmLineShift;
    const std::uint64_t last = first + lines;
    _warmWritten += lines;
    if (!_warmRanges.empty()) {
        WarmRange &top = _warmRanges.back();
        // Nursery allocation is a bump pointer, so consecutive bursts
        // are contiguous or overlapping: extend the newest range in
        // place and refresh its stamp. Trimming the head keeps a
        // range streamed past L3 capacity from claiming lines the
        // real cache would long have evicted.
        if (first <= top.last && last >= top.first) {
            top.first = std::min(top.first, first);
            top.last = std::max(top.last, last);
            top.stamp = _warmWritten;
            if (top.last - top.first > _warmCapLines)
                top.first = top.last - _warmCapLines;
            return;
        }
    }
    if (_warmRanges.size() >= 8) {
        const std::uint64_t now = _warmWritten;
        const std::uint64_t cap = _warmCapLines;
        std::erase_if(_warmRanges, [now, cap](const WarmRange &r) {
            return now - r.stamp > cap;
        });
    }
    WarmRange r{first, last, _warmWritten};
    if (r.last - r.first > _warmCapLines)
        r.first = r.last - _warmCapLines;
    _warmRanges.push_back(r);
}

bool
CacheHierarchy::warmHit(std::uint64_t addr)
{
    const std::uint64_t line = addr >> _warmLineShift;
    // Stamps grow toward the back; once one range is too old, all
    // earlier ones are older still.
    for (auto it = _warmRanges.rbegin(); it != _warmRanges.rend(); ++it) {
        if (_warmWritten - it->stamp > _warmCapLines)
            break;
        if (line >= it->first && line < it->last) {
            _warmHitCount += 1;
            return true;
        }
    }
    return false;
}

CacheHierarchy::LoadOutcome
CacheHierarchy::load(std::uint32_t core, std::uint64_t addr, Tick issue,
                     Frequency core_freq)
{
    DVFS_PROFILE_SCOPE(Cache);
    DVFS_ASSERT(core < _l1d.size(), "core index out of range");

    LoadOutcome out{};
    Cache &l1 = _l1d[core];
    Cache &l2 = _l2[core];

    auto r1 = l1.access(addr, false);
    if (r1.hit) {
        // L1 hit latency is part of the core's base IPC.
        out.level = HitLevel::L1;
        out.completion = issue;
        out.memLatency = 0;
        return out;
    }
    // A dirty L1 victim folds into the L2 (same clock domain, cheap);
    // install it there so its eventual eviction generates traffic.
    if (r1.dirtyVictim) {
        auto r = l2.access(r1.victim, true);
        if (r.dirtyVictim) {
            auto wb = _l3.access(r.victim, true);
            if (wb.dirtyVictim)
                _dram.write(wb.victim, issue);
        }
    }

    Tick t = issue + l2HitTicks(core_freq);
    auto r2 = l2.access(addr, false);
    if (r2.hit) {
        out.level = HitLevel::L2;
        out.completion = t;
        out.memLatency = t - issue;
        return out;
    }
    if (r2.dirtyVictim) {
        auto wb = _l3.access(r2.victim, true);
        if (wb.dirtyVictim)
            _dram.write(wb.victim, t);
    }

    t += l3HitTicks();
    auto r3 = _l3.access(addr, false);
    if (r3.hit) {
        out.level = HitLevel::L3;
        out.completion = t;
        out.memLatency = t - issue;
        return out;
    }
    // A line the overlay still holds warm would have been L3-resident
    // had its burst executed in detail: satisfy the load at L3 speed.
    // The access above already installed it in the real tags, and the
    // victim's writeback is suppressed — in detail the set would not
    // have evicted at all. Either way the install displaces a line,
    // so the overlay's decay clock advances for loads too.
    if (_warmEnabled) {
        _warmWritten += 1;
        if (warmHit(addr)) {
            out.level = HitLevel::L3;
            out.completion = t;
            out.memLatency = t - issue;
            return out;
        }
    }
    if (r3.dirtyVictim)
        _dram.write(r3.victim, t);
    else if (_warmEnabled)
        warmVictimWrite(addr, r3, t);

    Tick done = _dram.read(addr, t);
    out.level = HitLevel::Dram;
    out.completion = done;
    out.memLatency = done - issue;
    return out;
}

void
CacheHierarchy::warmVictimWrite(std::uint64_t addr, const Cache::Result &r3,
                                Tick t)
{
    if (warmVictimDue())
        _dram.write(r3.cleanVictim ? r3.victim
                                   : (addr ^ (std::uint64_t{1} << 32)),
                    t);
}

void
CacheHierarchy::reset()
{
    for (auto &c : _l1d)
        c.reset();
    for (auto &c : _l2)
        c.reset();
    _l3.reset();
    std::fill(_writePortFreeAt.begin(), _writePortFreeAt.end(), 0);
    _warmRanges.clear();
    _warmWritten = 0;
    _warmDebt = 0;
    _warmHitCount = 0;
}

} // namespace dvfs::uarch

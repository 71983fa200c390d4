#include "exp/sweep/fingerprint.hh"

#include <bit>

#include "exp/experiment.hh"

namespace dvfs::exp::sweep {

namespace {

void
mixCounters(Fnv1a &h, const uarch::PerfCounters &c)
{
    for (std::uint64_t w : c.words())
        h.mix(w);
}

/**
 * mixCounters of a stored epoch row: the words of the fields its mask
 * names, and each run of zero fields folded in one multiply.
 */
void
mixRow(Fnv1a &h, pred::EpochStore::Mask mask, const std::uint64_t *words)
{
    constexpr unsigned kFields = uarch::PerfCounters::kFields;
    for (unsigned i = 0; i < kFields;) {
        const unsigned rest = mask >> i;
        if (rest & 1) {
            h.mix(*words++);
            ++i;
            continue;
        }
        const unsigned zeros =
            rest != 0 ? static_cast<unsigned>(std::countr_zero(rest))
                      : kFields - i;
        h.mixZeroWords(zeros);
        i += zeros;
    }
}

void
mixRecord(Fnv1a &h, const pred::RunRecord &rec)
{
    h.mix(rec.baseFreq.toMHz());
    h.mix(rec.totalTime);
    h.mix(rec.epochs.size());
    for (const pred::Epoch e : rec.epochs) {
        h.mix(e.start);
        h.mix(e.end);
        h.mix(static_cast<std::uint64_t>(e.boundary));
        h.mix(static_cast<std::uint64_t>(e.stallTid));
        h.mix(e.active.size());
        for (auto t = e.active.begin(); t != e.active.end(); ++t) {
            h.mix(static_cast<std::uint64_t>(t.tid()));
            mixRow(h, t.mask(), t.words());
        }
    }
    h.mix(rec.threads.size());
    for (const auto &t : rec.threads) {
        h.mix(static_cast<std::uint64_t>(t.tid));
        h.mix(t.service ? 1 : 0);
        h.mix(t.spawnTick);
        h.mix(t.exitTick);
        mixCounters(h, t.totals);
    }
    h.mix(rec.gcMarks.size());
    for (const auto &m : rec.gcMarks) {
        h.mix(m.tick);
        h.mix(m.begin ? 1 : 0);
    }
}

void
mixEnergy(Fnv1a &h, const power::EnergyBreakdown &e)
{
    h.mixDouble(e.coreDynamic);
    h.mixDouble(e.coreStatic);
    h.mixDouble(e.uncore);
    h.mixDouble(e.dram);
}

} // namespace

std::uint64_t
fingerprintRun(const FixedRunOutput &out)
{
    DVFS_PROFILE_SCOPE(Digest);
    Fnv1a h;
    h.mix(out.freq.toMHz());
    h.mix(out.totalTime);
    h.mix(out.events);
    h.mix(out.collections);
    h.mix(out.gcTime);
    h.mix(out.allocatedBytes);
    mixCounters(h, out.totals);
    mixEnergy(h, out.energy);
    mixRecord(h, out.record);
    return h.digest();
}

std::uint64_t
fingerprintRun(const ManagedRunOutput &out)
{
    DVFS_PROFILE_SCOPE(Digest);
    Fnv1a h;
    h.mix(out.totalTime);
    h.mix(out.collections);
    h.mix(out.transitions);
    h.mixDouble(out.averageGHz);
    mixEnergy(h, out.energy);
    h.mix(out.decisions.size());
    for (const auto &d : out.decisions) {
        h.mix(d.tick);
        h.mix(d.chosen.toMHz());
        h.mixDouble(d.predictedSlowdown);
        h.mix(d.usedEpochs ? 1 : 0);
        h.mix(d.fallback ? 1 : 0);
    }
    return h.digest();
}

} // namespace dvfs::exp::sweep

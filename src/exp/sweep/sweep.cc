#include "exp/sweep/sweep.hh"

#include "sim/log.hh"
#include "sim/rng.hh"

namespace dvfs::exp::sweep {

std::size_t
SweepSpec::cellCount() const
{
    if (workloads.empty() || frequencies.empty() || seeds.empty())
        fatal("sweep spec has an empty dimension "
              "(%zu workloads, %zu frequencies, %zu seeds)",
              workloads.size(), frequencies.size(), seeds.size());
    return workloads.size() * frequencies.size() * seeds.size();
}

Cell
SweepSpec::cell(std::size_t index) const
{
    DVFS_ASSERT(index < cellCount(), "cell index out of range");
    Cell c;
    c.index = index;
    c.seed = index % seeds.size();
    index /= seeds.size();
    c.freq = index % frequencies.size();
    c.workload = index / frequencies.size();
    return c;
}

std::size_t
SweepSpec::indexOf(std::size_t workload, std::size_t freq,
                   std::size_t seed) const
{
    DVFS_ASSERT(workload < workloads.size(), "workload index out of range");
    DVFS_ASSERT(freq < frequencies.size(), "frequency index out of range");
    DVFS_ASSERT(seed < seeds.size(), "seed index out of range");
    return (workload * frequencies.size() + freq) * seeds.size() + seed;
}

std::size_t
SweepSpec::freqIndex(Frequency f) const
{
    for (std::size_t i = 0; i < frequencies.size(); ++i) {
        if (frequencies[i] == f)
            return i;
    }
    fatal("frequency %s is not part of this sweep", f.toString().c_str());
}

std::vector<std::uint64_t>
SweepSpec::replicateSeeds(std::uint64_t base, std::size_t n)
{
    // Each replicate is split directly off the base with its ordinal
    // as the salt — seed i never depends on how many replicates were
    // requested, mirroring the fault subsystem's per-class streams.
    std::vector<std::uint64_t> out;
    out.reserve(n);
    sim::Rng root(base);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(root.split(i).next());
    return out;
}

const FixedRunOutput &
SweepResult::at(std::size_t workload, std::size_t freq,
                std::size_t seed) const
{
    return cells.at(spec.indexOf(workload, freq, seed));
}

const FixedRunOutput &
SweepResult::at(std::size_t workload, Frequency f, std::size_t seed) const
{
    return cells.at(spec.indexOf(workload, spec.freqIndex(f), seed));
}

SweepResult
runSweep(const SweepSpec &spec, unsigned workers)
{
    const std::size_t n = spec.cellCount();

    SweepResult res;
    res.spec = spec;
    res.cells.resize(n);

    // Each cell builds, runs and tears down its own System; the only
    // shared state is the result slot it owns.
    runIndexed(n, workers, [&spec, &res](std::size_t index) {
        Cell c = spec.cell(index);
        RunOptions opts = spec.runOptions;
        opts.seed = spec.seeds[c.seed];
        res.cells[index] = runFixed(spec.workloads[c.workload],
                                    spec.frequencies[c.freq], opts);
    });
    return res;
}

} // namespace dvfs::exp::sweep

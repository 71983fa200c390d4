/**
 * @file
 * Sweep-engine scaling benchmark and determinism self-check.
 *
 * Runs one fig3-style ground-truth grid (benchmarks x operating
 * points x seeds) serially and then at several worker counts, checks
 * that every configuration produces bit-identical per-cell
 * fingerprints, and reports wall time, throughput and speedup.
 * Like-for-like speed comparisons across commits are perfbench's job
 * (perfbench/README.md); this binary measures one build's scaling.
 *
 * Exit status is nonzero if any parallel run's fingerprint deviates
 * from the serial reference — this binary doubles as a cheap
 * end-to-end determinism check for CI.
 *
 * Usage: sweep_bench [--benchmarks=4] [--seeds=1] [--workers=N]
 *                    [--mode=exact|sampled] [--startup-us=60]
 *                    [--detail-us=30] [--gap-us=980] [--max-gap-us=0]
 *                    [--drift-permille=50] [--managed]
 *                    [--repeat=N]
 *                    [--profile] [--expect-fingerprint=0x...]
 *
 * --managed swaps the fixed-frequency grid for an energy-manager-
 * governed one (benchmarks x seeds, default manager config): the
 * determinism self-check then covers managed cells — including
 * sampled managed cells, whose per-operating-point model forking and
 * forced detail windows must stay bit-identical at any worker count.
 *
 * --repeat=N measures each configuration N times and reports the
 * minimum wall time (noise floor on loaded machines); every repeat
 * must reproduce the same fingerprint — in either mode, since sampled
 * runs are exactly as deterministic as exact ones.
 *
 * --mode=sampled runs the grid under interval sampling (detail
 * windows + analytically fast-forwarded gaps, DESIGN.md section 11);
 * the window placement flags are ignored in exact mode. Sampled
 * fingerprints are stable but intentionally distinct from exact ones.
 *
 * After the table it prints the process's peak resident set
 * (getrusage ru_maxrss), over every configuration and repeat.
 *
 * --profile samples the hot-path profiler (sim/profile.hh) over each
 * configuration and prints its per-subsystem CPU-sample split.
 * --expect-fingerprint fails the run unless the serial digest matches
 * the given value — CI uses it to prove a profiled run is
 * bit-identical to the pinned golden grid.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "exp/sweep/fingerprint.hh"
#include "exp/sweep/sweep.hh"
#include "exp/table.hh"
#include "sim/profile.hh"

using namespace dvfs;

namespace {

struct Measurement {
    unsigned workers;
    double wallMs;  ///< min over repeats
    std::uint64_t digest;
    bool repeatsConsistent = true;
    sim::prof::Snapshot profile;  ///< all-zero unless profiling
};

void
printProfile(const sim::prof::Snapshot &snap, unsigned workers)
{
    const double total = static_cast<double>(snap.total());
    std::cout << "profile (workers=" << workers << "):\n";
    exp::Table t({"subsystem", "samples", "%"});
    for (unsigned i = 0; i < sim::prof::kSubsystemCount; ++i) {
        const std::uint64_t n = snap.samples[i];
        t.addRow({sim::prof::subsystemName(
                      static_cast<sim::prof::Subsystem>(i)),
                  std::to_string(n),
                  exp::Table::fmt(total > 0.0
                                      ? 100.0 * static_cast<double>(n) /
                                            total
                                      : 0.0,
                                  1)});
    }
    t.print(std::cout);
    std::cout << "\n";
}

/**
 * Time @p repeat runs of @p grid (which runs the grid once and
 * returns its digest): min wall, and whether every repeat reproduced
 * the first digest.
 */
template <typename Grid>
Measurement
measure(unsigned workers, unsigned repeat, bool profiling, Grid grid)
{
    Measurement m;
    m.workers = workers;
    if (profiling)
        sim::prof::start();
    for (unsigned r = 0; r < repeat; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        const std::uint64_t digest = grid();
        auto t1 = std::chrono::steady_clock::now();
        double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();

        if (r == 0) {
            m.wallMs = ms;
            m.digest = digest;
        } else {
            m.wallMs = std::min(m.wallMs, ms);
            if (digest != m.digest)
                m.repeatsConsistent = false;
        }
    }
    if (profiling)
        m.profile = sim::prof::stop();
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::FlagSet args("sweep_bench",
                        "sweep-engine scaling benchmark and "
                        "determinism self-check");
    args.add("benchmarks", "N",
             "workloads from the DaCapo suite (default 4)")
        .add("seeds", "N", "replicate seeds per workload (default 1)")
        .add("workers", "N",
             "also measure this pool width beside the 1,2,4,... "
             "hardware ladder (default: hardware threads)")
        .addMode()
        .addSampling()
        .addBool("managed",
                 "energy-manager-governed grid (benchmarks x seeds) "
                 "instead of fixed frequencies")
        .addRepeat()
        .addBool("profile", "per-subsystem CPU-sample split")
        .add("expect-fingerprint", "0x...",
             "fail unless the serial digest matches");
    args.parse(argc, argv);
    const auto n_bench =
        static_cast<std::size_t>(args.getInt("benchmarks", 4, 1));
    const auto n_seeds =
        static_cast<std::size_t>(args.getInt("seeds", 1, 1));
    const unsigned workers = bench::sweepWorkers(args);
    const unsigned repeat = bench::repeatFromArgs(args);

    const bool profiling = args.has("profile");
    const std::optional<std::uint64_t> expect_fp =
        args.getHex64("expect-fingerprint");
    const exp::SimMode mode = bench::modeFromArgs(args);
    const sim::SamplingConfig sampling = bench::samplingFromArgs(args);
    const bool managed = args.has("managed");

    exp::sweep::SweepSpec spec = bench::fig3GridSpec(n_bench);
    spec.seeds = exp::sweep::SweepSpec::replicateSeeds(42, n_seeds);
    spec.runOptions.mode = mode;
    spec.runOptions.sampling = sampling;

    const std::size_t cells = managed
                                  ? spec.workloads.size() *
                                        spec.seeds.size()
                                  : spec.cellCount();
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

    if (managed) {
        std::cout << "sweep_bench: " << spec.workloads.size()
                  << " benchmarks x " << spec.seeds.size()
                  << " seeds = " << cells
                  << " managed cells (energy-manager governed), " << hw
                  << " hardware threads, " << exp::simModeName(mode)
                  << " mode\n\n";
    } else {
        std::cout << "sweep_bench: " << spec.workloads.size()
                  << " benchmarks x " << spec.frequencies.size()
                  << " frequencies x " << spec.seeds.size() << " seeds = "
                  << cells << " cells, " << hw << " hardware threads, "
                  << exp::simModeName(mode) << " mode\n\n";
    }

    // Worker counts to measure: serial reference first, then powers
    // of two up to the hardware width. An explicit --workers is
    // measured as asked, even beyond the hardware width; the default
    // list never oversubscribes.
    std::vector<unsigned> counts = {1};
    for (unsigned w = 2; w <= hw; w *= 2)
        counts.push_back(w);
    if (hw > 1 && counts.back() != hw)
        counts.push_back(hw);
    if (std::find(counts.begin(), counts.end(), workers) == counts.end())
        counts.push_back(workers);

    exp::RunOptions managed_opts;
    managed_opts.mode = mode;
    managed_opts.sampling = sampling;
    const auto table_vf = power::VfTable::haswell();

    std::vector<Measurement> runs;
    for (unsigned w : counts) {
        runs.push_back(measure(w, repeat, profiling, [&] {
            if (managed) {
                const std::size_t n_seeds = spec.seeds.size();
                return exp::sweep::gridDigest(
                    exp::sweep::sweepMap<exp::ManagedRunOutput>(
                        cells, w, [&](std::size_t i) {
                            exp::RunOptions ro = managed_opts;
                            ro.seed = spec.seeds[i % n_seeds];
                            return exp::runManaged(
                                spec.workloads[i / n_seeds],
                                mgr::ManagerConfig{}, table_vf, ro);
                        }));
            }
            return exp::sweep::gridDigest(
                exp::sweep::runSweep(spec, w).cells);
        }));
    }
    const Measurement &serial = runs.front();

    exp::Table table(
        {"workers", "wall ms", "cells/s", "speedup", "fingerprint"});
    bool mismatch = false;
    for (const auto &m : runs) {
        bool ok = m.digest == serial.digest && m.repeatsConsistent;
        mismatch = mismatch || !ok;

        double cells_s = static_cast<double>(cells) / (m.wallMs / 1000.0);
        char fp[32];
        std::snprintf(fp, sizeof(fp), "0x%016llx%s",
                      static_cast<unsigned long long>(m.digest),
                      ok ? "" : " MISMATCH");
        table.addRow({std::to_string(m.workers),
                      exp::Table::fmt(m.wallMs, 1),
                      exp::Table::fmt(cells_s, 2),
                      exp::Table::fmt(serial.wallMs / m.wallMs, 2), fp});
    }
    table.print(std::cout);
    // Peak resident set of the whole process (every configuration and
    // repeat), so memory can be checked without perfbench.
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::cout << "peak RSS: " << exp::Table::fmt(ru.ru_maxrss / 1024.0, 1)
              << " MB\n\n";

    if (profiling) {
        for (const auto &m : runs)
            printProfile(m.profile, m.workers);
    }

    if (mismatch) {
        std::cerr << "sweep_bench: FINGERPRINT MISMATCH — parallel "
                     "execution is not bit-identical to serial\n";
        return 1;
    }
    std::cout << "all fingerprints match the serial reference\n";

    if (expect_fp) {
        if (serial.digest != *expect_fp) {
            std::cerr << "sweep_bench: fingerprint "
                      << std::hex << serial.digest
                      << " does not match expected " << *expect_fp
                      << std::dec << "\n";
            return 1;
        }
        std::cout << "fingerprint matches --expect-fingerprint\n";
    }
    return 0;
}

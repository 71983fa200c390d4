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
 *                    [--repeat=N] [--progress]
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
 * --profile reports the hot-path profiler's per-subsystem wall-time
 * breakdown for each configuration; it needs a DVFS_PROFILE=ON build
 * (otherwise a warning is printed and the run proceeds unprofiled).
 * --expect-fingerprint fails the run unless the serial digest matches
 * the given value — CI uses it to prove the profiled build is
 * bit-identical to the plain one.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "exp/sweep/differential.hh"
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
    const double total = static_cast<double>(snap.totalNs());
    std::cout << "profile (workers=" << workers << "):\n";
    exp::Table t({"subsystem", "self ms", "%", "enters"});
    for (unsigned i = 0; i < sim::prof::kSubsystemCount; ++i) {
        const auto &e = snap.bySubsystem[i];
        t.addRow({sim::prof::subsystemName(
                      static_cast<sim::prof::Subsystem>(i)),
                  exp::Table::fmt(static_cast<double>(e.selfNs) / 1e6, 1),
                  exp::Table::fmt(total > 0.0
                                      ? 100.0 *
                                            static_cast<double>(e.selfNs) /
                                            total
                                      : 0.0,
                                  1),
                  std::to_string(e.enters)});
    }
    t.print(std::cout);
    std::cout << "\n";
}

/** One managed grid measurement: (workload x seed) cells, by index. */
Measurement
measureManaged(const std::vector<wl::WorkloadParams> &workloads,
               const std::vector<std::uint64_t> &seeds,
               const power::VfTable &table_vf, const exp::RunOptions &opts,
               unsigned workers, unsigned repeat, bool profiling)
{
    Measurement m;
    m.workers = workers;
    if (profiling)
        sim::prof::reset();
    const std::size_t n = workloads.size() * seeds.size();
    for (unsigned r = 0; r < repeat; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        auto cells = exp::sweep::sweepMap<exp::ManagedRunOutput>(
            n, workers, [&](std::size_t i) {
                mgr::ManagerConfig mc;
                exp::RunOptions ro = opts;
                ro.seed = seeds[i % seeds.size()];
                return exp::runManaged(workloads[i / seeds.size()], mc,
                                       table_vf, ro);
            });
        auto t1 = std::chrono::steady_clock::now();
        double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        std::uint64_t digest = exp::sweep::gridDigest(cells);

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
        m.profile = sim::prof::snapshot();
    return m;
}

Measurement
measure(const exp::sweep::SweepSpec &spec, unsigned workers,
        unsigned repeat, bool progress, bool profiling)
{
    Measurement m;
    m.workers = workers;
    if (profiling)
        sim::prof::reset();
    for (unsigned r = 0; r < repeat; ++r) {
        exp::sweep::SweepRunner::Options ro;
        ro.workers = workers;
        ro.progress = progress;
        ro.label = "sweep_bench w=" + std::to_string(workers);

        auto t0 = std::chrono::steady_clock::now();
        auto res = exp::sweep::SweepRunner(spec, ro).run();
        auto t1 = std::chrono::steady_clock::now();
        double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        std::uint64_t digest = exp::sweep::gridDigest(res.cells);

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
        m.profile = sim::prof::snapshot();
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
             "hardware ladder (default: DVFS_SWEEP_WORKERS)")
        .addMode()
        .addSampling()
        .addBool("managed",
                 "energy-manager-governed grid (benchmarks x seeds) "
                 "instead of fixed frequencies")
        .addRepeat()
        .addBool("progress", "progress/ETA lines on stderr")
        .addBool("profile",
                 "per-subsystem wall breakdown (DVFS_PROFILE=ON "
                 "builds)")
        .add("expect-fingerprint", "0x...",
             "fail unless the serial digest matches");
    args.parse(argc, argv);
    const auto n_bench =
        static_cast<std::size_t>(args.getInt("benchmarks", 4, 1));
    const auto n_seeds =
        static_cast<std::size_t>(args.getInt("seeds", 1, 1));
    const bool progress = args.has("progress");
    const unsigned workers = bench::sweepWorkers(args);
    const unsigned repeat = bench::repeatFromArgs(args);

    bool profiling = args.has("profile");
    if (profiling && !sim::prof::kEnabled) {
        std::cerr << "sweep_bench: --profile ignored: profiler not "
                     "compiled in (configure with -DDVFS_PROFILE=ON)\n";
        profiling = false;
    }
    const std::string expect_fp = args.get("expect-fingerprint");
    const exp::SimMode mode = bench::modeFromArgs(args);
    const sim::SamplingConfig sampling = bench::samplingFromArgs(args);
    const bool managed = args.has("managed");

    exp::sweep::SweepSpec spec;
    for (const auto &params : wl::dacapoSuite()) {
        if (spec.workloads.size() >= n_bench)
            break;
        spec.workloads.push_back(params);
    }
    spec.frequencies = {Frequency::ghz(1.0), Frequency::ghz(2.0),
                        Frequency::ghz(3.0), Frequency::ghz(4.0)};
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
    // of two up to the hardware width. An explicit --workers /
    // DVFS_SWEEP_WORKERS is measured as asked, even beyond the
    // hardware width; the default list never oversubscribes.
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
        runs.push_back(managed
                           ? measureManaged(spec.workloads, spec.seeds,
                                            table_vf, managed_opts, w,
                                            repeat, profiling)
                           : measure(spec, w, repeat, progress,
                                     profiling));
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
    std::cout << "\n";

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

    if (!expect_fp.empty()) {
        const std::uint64_t want =
            std::stoull(expect_fp, nullptr, 16);
        if (serial.digest != want) {
            std::cerr << "sweep_bench: fingerprint "
                      << std::hex << serial.digest
                      << " does not match expected " << want << std::dec
                      << "\n";
            return 1;
        }
        std::cout << "fingerprint matches --expect-fingerprint\n";
    }
    return 0;
}

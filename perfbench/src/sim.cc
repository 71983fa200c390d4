/**
 * @file
 * The simulation workloads: sim-exact and sim-sampled.
 *
 * Both run a fixed set of cells (the pins name every one) as repeated
 * passes over the sweep pool, handed out in grid order as a user's
 * sweep would. The grids do not depend on the run's seed: their
 * simulated results are pinned, and the accuracy metrics must read the
 * same on every run. Every pass is checked cell by cell against the
 * pinned fingerprints.
 */

#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <thread>

#include "exp/sweep/fingerprint.hh"
#include "exp/sweep/pool.hh"
#include "pred/run_view.hh"
#include "power/vf_table.hh"
#include "spans.hh"
#include "stats.hh"
#include "trace/writer.hh"
#include "wl/suite.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

struct SimJob {
    bool managed = false;
    wl::WorkloadParams params;
    Frequency freq;  ///< fixed cells only
    exp::RunOptions opts;
    std::string grid;  ///< "exact", "sampled" or "managed-sampled"
    std::string key;   ///< pin key
};

struct JobOut {
    std::uint64_t fingerprint = 0;
    Tick totalTime = 0;
    std::uint64_t events = 0;
    uarch::PerfCounters totals;
    std::uint64_t collections = 0;
    Tick gcTime = 0;
    sim::SampleStats sampling;
    std::uint64_t transitions = 0;
    /** The whole run, kept for base cells the predictor reads. */
    std::shared_ptr<const exp::FixedRunOutput> run;
    std::int64_t startNs = 0, endNs = 0;  ///< whole cell incl. digest
    std::int64_t runNs = 0;               ///< the run call alone
    std::size_t worker = 0;
};

void
addFixedGrid(std::vector<SimJob> &jobs,
             const std::vector<wl::WorkloadParams> &workloads,
             const std::vector<std::uint64_t> &seeds, exp::SimMode mode,
             const std::string &grid)
{
    // Flattened like SweepSpec (workload, frequency, seed innermost),
    // so a grid digest here equals exp::sweep::gridDigest.
    for (const auto &params : workloads) {
        for (Frequency f : fig3Freqs()) {
            for (std::uint64_t seed : seeds) {
                SimJob j;
                j.params = params;
                j.freq = f;
                j.opts.seed = seed;
                j.opts.mode = mode;  // default sampling placement
                j.grid = grid;
                j.key = cellKey(grid, params.name, f.toMHz(), seed);
                jobs.push_back(std::move(j));
            }
        }
    }
}

void
addManagedGrid(std::vector<SimJob> &jobs)
{
    for (const auto &params : managedWorkloads()) {
        for (std::uint64_t seed : managedSeeds()) {
            SimJob j;
            j.managed = true;
            j.params = params;
            j.opts.seed = seed;
            j.opts.mode = exp::SimMode::Sampled;
            j.opts.sampling = managedSampling();
            j.grid = "managed-sampled";
            j.key = cellKey(j.grid, params.name, 0, seed);
            jobs.push_back(std::move(j));
        }
    }
}

JobOut
runJob(const SimJob &job, bool keep, std::uint64_t parent)
{
    static const power::VfTable table = power::VfTable::haswell();
    JobOut o;
    o.worker = std::hash<std::thread::id>{}(std::this_thread::get_id());
    o.startNs = nowNs();
    if (job.managed) {
        exp::ManagedRunOutput out;
        {
            Scope s("exp.run_managed", 0, parent);
            out = exp::runManaged(job.params, mgr::ManagerConfig{}, table,
                                  job.opts);
        }
        o.runNs = nowNs() - o.startNs;
        Scope s("exp.fingerprint", 0, parent);
        o.fingerprint = exp::sweep::fingerprintRun(out);
        o.totalTime = out.totalTime;
        o.collections = out.collections;
        o.sampling = out.sampling;
        o.transitions = out.transitions;
    } else {
        auto out = std::make_shared<exp::FixedRunOutput>();
        {
            Scope s("exp.run_fixed", 0, parent);
            *out = exp::runFixed(job.params, job.freq, job.opts);
        }
        o.runNs = nowNs() - o.startNs;
        Scope s("exp.fingerprint", 0, parent);
        o.fingerprint = exp::sweep::fingerprintRun(*out);
        o.totalTime = out->totalTime;
        o.events = out->events;
        o.totals = out->totals;
        o.collections = out->collections;
        o.gcTime = out->gcTime;
        o.sampling = out->sampling;
        if (keep)
            o.run = std::move(out);
    }
    o.endNs = nowNs();
    return o;
}

struct PassOut {
    std::vector<JobOut> outs;  ///< canonical (job) order
    std::int64_t startNs = 0, endNs = 0;
};

/** Run @p jobs once on the sweep pool. */
PassOut
runPass(const std::vector<SimJob> &jobs,
        const std::function<bool(const SimJob &)> &keep)
{
    PassOut p;
    Scope pass("exp.sweep.pass");
    const std::uint64_t parent = pass.id();
    p.startNs = nowNs();
    p.outs = exp::sweep::sweepMap<JobOut>(
        jobs.size(), sweepWorkers(), [&](std::size_t i) {
            return runJob(jobs[i], keep(jobs[i]), parent);
        });
    p.endNs = nowNs();
    return p;
}

/** Compare every cell of a pass with its pin; count attempts/failures. */
void
checkPass(const std::vector<SimJob> &jobs, const PassOut &pass,
          const Pins &pins, Outcome &oc)
{
    std::vector<std::string> cells;
    std::vector<std::uint64_t> fps;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        cells.push_back(jobs[i].key);
        fps.push_back(pass.outs[i].fingerprint);
    }
    checkCells(cells, fps, pins, oc);
}

/** Grid digests (exp::sweep::gridDigest's scheme) checked once per run. */
void
checkGrids(const std::vector<SimJob> &jobs, const PassOut &pass,
           const Pins &pins, Outcome &oc)
{
    std::map<std::string, exp::sweep::Fnv1a> grids;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        grids[jobs[i].grid].mix(pass.outs[i].fingerprint);
    for (const auto &[name, h] : grids) {
        const Pin *pin = pins.find(gridKey(name));
        if (!pin || pin->value != h.digest()) {
            oc.mismatch("grid " + name + ": digest " + hex64(h.digest()) +
                        ", pinned " +
                        (pin ? hex64(pin->value) : std::string("none")));
        }
    }
}

/** Everything timed over the measured passes. */
struct Measured {
    std::vector<double> cellsPerS, busyShare, tailIdleMs;
    std::map<std::string, std::vector<double>> fixedMsByWorkload;
    std::vector<double> managedMs;
    double fixedRunNs = 0.0;
    double fixedEvents = 0.0;
    PassOut first;  ///< the first pass, with base records kept
};

Measured
measure(const std::vector<SimJob> &jobs, double seconds, const Pins &pins,
        Outcome &oc)
{
    const unsigned workers = sweepWorkers();
    Measured m;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(seconds * 1e9);
    while (nowNs() < deadline || m.cellsPerS.empty()) {
        const bool keepBase = m.cellsPerS.empty();
        PassOut p = runPass(jobs, [&](const SimJob &j) {
            return keepBase && !j.managed && j.freq == fig3Freqs().front();
        });
        checkPass(jobs, p, pins, oc);

        const double wallNs = static_cast<double>(p.endNs - p.startNs);
        m.cellsPerS.push_back(static_cast<double>(jobs.size()) /
                              (wallNs / 1e9));
        double busy = 0.0;
        std::map<std::size_t, std::int64_t> lastEnd;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const JobOut &o = p.outs[i];
            busy += static_cast<double>(o.endNs - o.startNs);
            lastEnd[o.worker] = std::max(lastEnd[o.worker], o.endNs);
            const double ms = static_cast<double>(o.runNs) / 1e6;
            if (jobs[i].managed) {
                m.managedMs.push_back(ms);
            } else {
                m.fixedMsByWorkload[jobs[i].params.name].push_back(ms);
                m.fixedRunNs += static_cast<double>(o.runNs);
                m.fixedEvents += static_cast<double>(o.events);
            }
        }
        m.busyShare.push_back(busy / (wallNs * workers));
        double idle = 0.0;
        for (const auto &[w, end] : lastEnd)
            idle += static_cast<double>(p.endNs - end) / 1e6;
        m.tailIdleMs.push_back(idle / static_cast<double>(lastEnd.size()));
        if (keepBase)
            m.first = std::move(p);
    }
    return m;
}

/** Index of job (workload, freq, seed) in a fixed grid's flattening. */
std::size_t
fixedIndex(std::size_t w, std::size_t f, std::size_t s, std::size_t nSeeds)
{
    return (w * fig3Freqs().size() + f) * nSeeds + s;
}

/**
 * DEP+BURST mean |error|, percent: each workload's base (1 GHz) cell
 * predicts its other frequencies; @p actual gives the true times.
 */
double
predErrPct(const PassOut &pass, std::size_t nWorkloads, std::size_t nSeeds,
           const std::function<Tick(std::size_t)> &actual)
{
    const auto freqs = fig3Freqs();
    std::vector<double> errs;
    for (std::size_t w = 0; w < nWorkloads; ++w) {
        for (std::size_t s = 0; s < nSeeds; ++s) {
            const JobOut &base = pass.outs[fixedIndex(w, 0, s, nSeeds)];
            if (!base.run)
                throw std::runtime_error("base cell record was not kept");
            const pred::RecordView view(base.run->record);
            for (std::size_t f = 1; f < freqs.size(); ++f) {
                Tick est = 0;
                {
                    Scope sp("pred.predict");
                    est = depBurst().predict(view, freqs[f]);
                }
                const Tick truth = actual(fixedIndex(w, f, s, nSeeds));
                errs.push_back(
                    std::fabs(pred::Predictor::relativeError(est, truth)) *
                    100.0);
            }
        }
    }
    return mean(errs);
}

/** Counts from the result structs of one pass (deterministic). */
void
addCounts(const std::vector<SimJob> &jobs, const PassOut &pass,
          Outcome &oc)
{
    double events = 0, instr = 0, l3 = 0, dram = 0, stores = 0, gcs = 0;
    double gcTime = 0, total = 0, detail = 0, ff = 0, ffActions = 0;
    double forced = 0, fallbacks = 0, transitions = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobOut &o = pass.outs[i];
        ffActions += static_cast<double>(o.sampling.ffActions);
        forced += static_cast<double>(o.sampling.forcedWindows);
        fallbacks += static_cast<double>(o.sampling.ffFallbacks);
        transitions += static_cast<double>(o.transitions);
        if (jobs[i].managed)
            continue;
        events += static_cast<double>(o.events);
        instr += static_cast<double>(o.totals.instructions);
        l3 += static_cast<double>(o.totals.l3Hits);
        dram += static_cast<double>(o.totals.dramLoads);
        stores += static_cast<double>(o.totals.storeLines);
        gcs += static_cast<double>(o.collections);
        gcTime += static_cast<double>(o.gcTime);
        total += static_cast<double>(o.totalTime);
        if (o.sampling.detailTicks + o.sampling.ffTicks == 0) {
            detail += static_cast<double>(o.totalTime);  // exact run
        } else {
            detail += static_cast<double>(o.sampling.detailTicks);
            ff += static_cast<double>(o.sampling.ffTicks);
        }
    }
    oc.add("sim.events", events, "count");
    oc.add("uarch.instructions", instr, "count");
    oc.add("uarch.l3_hits", l3, "count");
    oc.add("uarch.dram_loads", dram, "count");
    oc.add("uarch.store_lines", stores, "count");
    oc.add("rt.collections", gcs, "count");
    oc.add("rt.gc_share", total > 0 ? gcTime / total : 0.0, "ratio");
    oc.add("sim.detail_share", detail + ff > 0 ? detail / (detail + ff) : 0.0,
           "ratio");
    oc.add("sim.ff_actions", ffActions, "count");
    oc.add("sim.forced_windows", forced, "count");
    oc.add("uarch.fastpath.ff_fallbacks", fallbacks, "count");
    oc.add("mgr.transitions", transitions, "count");
}

/** Per-layer timings of the traced passes. */
void
addTimings(const Measured &m, Outcome &oc)
{
    for (const auto &[name, ms] : m.fixedMsByWorkload) {
        oc.add("exp.run_fixed.cell_ms." + name + ".p50",
               percentile(ms, 0.50), "ms");
        oc.add("exp.run_fixed.cell_ms." + name + ".p99",
               percentile(ms, 0.99), "ms");
    }
    if (!m.managedMs.empty()) {
        oc.add("exp.run_managed.cell_ms.p50", percentile(m.managedMs, 0.5),
               "ms");
        oc.add("exp.run_managed.cell_ms.p99",
               percentile(m.managedMs, 0.99), "ms");
    }
    oc.add("sim.host_ns_per_event",
           m.fixedEvents > 0 ? m.fixedRunNs / m.fixedEvents : 0.0, "ns");
    oc.add("exp.sweep.busy_share", median(m.busyShare), "ratio");
    oc.add("exp.sweep.tail_idle_ms", median(m.tailIdleMs), "ms");
}

/**
 * Shared body of both sim workloads: set-up (grid build plus a warm-up
 * of one cell per workload), measured passes, checks and metrics.
 * @p accuracy computes the workload's error metrics from the first pass.
 */
Outcome
runSim(const RunArgs &args, const Pins &pins,
       const std::function<std::vector<SimJob>()> &build,
       const std::function<void(const std::vector<SimJob> &,
                                const PassOut &, Outcome &, bool)>
           &accuracy)
{
    Outcome oc;
    std::vector<SimJob> jobs;
    const double setupS = medianSetupSeconds(5, [&] {
        Scope s("perfbench.setup");
        jobs = build();
        // Warm-up: the shortest (4 GHz) fixed cell of every workload.
        std::vector<SimJob> warm;
        for (const auto &j : jobs) {
            if (!j.managed && j.freq == fig3Freqs().back() &&
                (warm.empty() || warm.back().params.name != j.params.name))
                warm.push_back(j);
        }
        PassOut p = runPass(warm, [](const SimJob &) { return false; });
        checkPass(warm, p, pins, oc);
    });

    if (!args.trace) {
        Measured m = measure(jobs, args.seconds, pins, oc);
        checkGrids(jobs, m.first, pins, oc);
        oc.add("throughput_per_s", median(m.cellsPerS), "1/s");
        accuracy(jobs, m.first, oc, false);
        oc.add("peak_rss_mb", peakRssMb(), "MB");
        oc.add("setup_s", setupS, "s");
        std::cout << "passes: " << m.cellsPerS.size() << " x "
                  << jobs.size() << " cells on " << sweepWorkers()
                  << " workers\n";
        return oc;
    }

    // Traced run: the same passes untraced, then traced; the difference
    // in throughput is the recorder's overhead.
    Measured plain = measure(jobs, args.seconds / 2, pins, oc);
    setTracing(true);
    Measured traced = measure(jobs, args.seconds / 2, pins, oc);
    accuracy(jobs, traced.first, oc, true);
    setTracing(false);
    checkGrids(jobs, traced.first, pins, oc);
    addCounts(jobs, traced.first, oc);
    addTimings(traced, oc);
    const double overhead =
        (median(plain.cellsPerS) / median(traced.cellsPerS) - 1.0) * 100.0;
    oc.add("perfbench.trace_overhead_pct", overhead, "%");
    std::cout << "tracing overhead: " << overhead
              << "% of cells/s (untraced " << median(plain.cellsPerS)
              << ", traced " << median(traced.cellsPerS) << ")\n";
    return oc;
}

} // namespace

Outcome
runSimExact(const RunArgs &args, const Pins &pins)
{
    const auto workloads = wl::dacapoSuite();
    return runSim(
        args, pins,
        [&] {
            std::vector<SimJob> jobs;
            addFixedGrid(jobs, workloads, {kFig3Seed}, exp::SimMode::Exact,
                         "exact");
            return jobs;
        },
        [&](const std::vector<SimJob> &, const PassOut &first, Outcome &oc,
            bool layer) {
            const double err = predErrPct(
                first, workloads.size(), 1,
                [&](std::size_t i) { return first.outs[i].totalTime; });
            oc.add(layer ? "exp.pred_err_pct" : "err_pct", err, "%");
        });
}

Outcome
runSimSampled(const RunArgs &args, const Pins &pins)
{
    const auto workloads = wl::dacapoSuite();
    const auto seeds = sampledSeeds();
    return runSim(
        args, pins,
        [&] {
            std::vector<SimJob> jobs;
            addFixedGrid(jobs, workloads, seeds, exp::SimMode::Sampled,
                         "sampled");
            addManagedGrid(jobs);
            return jobs;
        },
        [&](const std::vector<SimJob> &jobs, const PassOut &first,
            Outcome &oc, bool layer) {
            // Exact reference times for the same coordinates, pinned.
            auto exactTicks = [&](std::size_t i) -> Tick {
                const SimJob &j = jobs[i];
                const Pin *pin = pins.find(cellKey(
                    "exact", j.params.name, j.freq.toMHz(), j.opts.seed));
                if (!pin) {
                    oc.mismatch("no exact reference pinned for " + j.key);
                    return 1;
                }
                return pin->ticks;
            };
            std::vector<double> errs;
            const std::size_t nf = fig3Freqs().size();
            for (std::size_t w = 0; w < workloads.size(); ++w) {
                for (std::size_t s = 0; s < seeds.size(); ++s) {
                    const std::size_t b = fixedIndex(w, 0, s, seeds.size());
                    for (std::size_t f = 1; f < nf; ++f) {
                        const std::size_t i = fixedIndex(w, f, s, seeds.size());
                        const double sampled =
                            static_cast<double>(first.outs[i].totalTime) /
                            static_cast<double>(first.outs[b].totalTime);
                        const double exact =
                            static_cast<double>(exactTicks(i)) /
                            static_cast<double>(exactTicks(b));
                        errs.push_back(std::fabs(sampled - exact) / exact *
                                       100.0);
                    }
                }
            }
            oc.add(layer ? "sim.sampled_err_pct" : "err_pct", mean(errs),
                   "%");
            if (layer) {
                oc.add("exp.pred_err_pct",
                       predErrPct(first, workloads.size(), seeds.size(),
                                  exactTicks),
                       "%");
            }
        });
}

void
writePins(const std::string &path)
{
    const auto workloads = wl::dacapoSuite();
    std::vector<SimJob> jobs;
    addFixedGrid(jobs, workloads, {kFig3Seed}, exp::SimMode::Exact, "exact");
    const std::size_t fig3Cells = jobs.size();
    addFixedGrid(jobs, workloads, sampledSeeds(), exp::SimMode::Exact,
                 "exact-reference");
    addFixedGrid(jobs, workloads, sampledSeeds(), exp::SimMode::Sampled,
                 "sampled");
    addManagedGrid(jobs);
    PassOut p = runPass(jobs, [&](const SimJob &j) {
        return j.grid == "exact";
    });

    Pins pins;
    std::map<std::string, exp::sweep::Fnv1a> grids;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SimJob &j = jobs[i];
        const JobOut &o = p.outs[i];
        // Exact cells of every seed share one key space, so sampled
        // cells find their references by coordinates.
        const std::string mode = j.grid == "exact-reference" ? "exact"
                                                             : j.grid;
        pins.set(cellKey(mode, j.params.name,
                         j.managed ? 0 : j.freq.toMHz(), j.opts.seed),
                 Pin{o.fingerprint, o.totalTime});
        if (j.grid != "exact-reference")
            grids[j.grid].mix(o.fingerprint);
        if (i < fig3Cells) {
            trace::TraceMeta meta{j.params.name, j.opts.seed};
            const auto image = trace::encodeTrace(o.run->record, meta);
            pins.set(traceKey(j.params.name, j.freq.toMHz(), j.opts.seed),
                     Pin{trace::tracePayloadDigest(image), o.totalTime});
        }
    }
    for (const auto &[name, h] : grids)
        pins.set(gridKey(name), Pin{h.digest(), 0});
    pins.save(path);
    std::cout << "pinned " << pins.size() << " values to " << path << "\n";
}

} // namespace perfbench

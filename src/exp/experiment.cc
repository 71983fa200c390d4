#include "exp/experiment.hh"

#include <cctype>
#include <cmath>
#include <optional>

#include "fault/injector.hh"
#include "sim/log.hh"

namespace dvfs::exp {

const char *
simModeName(SimMode m)
{
    switch (m) {
      case SimMode::Exact:
        return "exact";
      case SimMode::Sampled:
        return "sampled";
    }
    return "?";
}

SimMode
parseSimMode(const std::string &name, const std::string &flag)
{
    std::string low = name;
    for (char &c : low)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    if (low == "exact")
        return SimMode::Exact;
    if (low == "sampled")
        return SimMode::Sampled;
    fatal("%s: unknown simulation mode '%s' (expected exact|sampled)",
          flag.c_str(), name.c_str());
}

namespace {

wl::BenchInstance
buildSeeded(const wl::WorkloadParams &params, Frequency freq,
            std::uint64_t seed)
{
    os::SystemConfig sys_cfg = wl::defaultSystemConfig(freq);
    sys_cfg.seed = seed;
    return wl::buildBenchmark(params, sys_cfg);
}

/**
 * The one machine wiring behind runFixed and runManaged: build, seed,
 * sampling, recorder, meter, then faults and the auditor when
 * requested, then the manager when governed (@p mgr_cfg non-null).
 * Listeners run in attach order, so this order is part of every
 * fingerprint. @p table must outlive the run.
 */
struct WiredRun {
    WiredRun(const wl::WorkloadParams &params, Frequency freq,
             const power::VfTable &table, const RunOptions &opts,
             const mgr::ManagerConfig *mgr_cfg)
        : inst(buildSeeded(params, freq, opts.seed)),
          rec(*inst.sys), meter(*inst.sys, table),
          mode(opts.mode)
    {
        if (mode == SimMode::Sampled) {
            // A manager's decision epochs are always observed: GC
            // boundaries force detail windows (DVFS transitions force
            // them unconditionally inside System::setFrequency).
            inst.sys->enableSampling(opts.sampling, mgr_cfg != nullptr);
        }
        inst.sys->addListener(&rec);
        meter.attach();
        if (opts.faults) {
            plan.emplace(*opts.faults);
            fault::installFaults(*inst.sys, *plan, inst.runtime.get());
            auditor.emplace(*inst.sys);
            auditor->observeEpochs(&rec);
            auditor->attach();
        }
        if (mgr_cfg) {
            manager.emplace(*inst.sys, rec, table, *mgr_cfg);
            manager->attach();
        }
    }

    /**
     * Run to completion. A run that does not finish is fatal, with
     * @p unfinished as the message, unless it is audited: then the
     * watchdog's abort is reported instead.
     */
    void
    run(const std::string &unfinished)
    {
        res = inst.sys->run();
        if (!res.finished && !auditor)
            fatal("%s", unfinished.c_str());
        meter.finish();
    }

    /** Fill the fields every run output shares. */
    template <typename Out>
    void
    report(Out &out) const
    {
        out.totalTime = res.totalTime;
        out.energy = meter.energy();
        out.collections = inst.runtime->collections();
        out.mode = mode;
        if (const sim::SamplingController *sc = inst.sys->sampling())
            out.sampling = sc->finalStats();
        if (auditor) {
            AuditReport &a = out.audit.emplace();
            a.finished = res.finished;
            a.aborted = res.aborted;
            a.abortReason = res.abortReason;
            a.faultTrace = plan->trace();
            a.faultFingerprint = plan->fingerprint();
            a.faultsInjected = plan->totalInjected();
            a.violations = auditor->violations();
            a.watchdog = auditor->watchdog();
            a.audits = auditor->audits();
        }
    }

    wl::BenchInstance inst;
    pred::RunRecorder rec;
    power::EnergyMeter meter;
    SimMode mode;
    std::optional<fault::FaultPlan> plan;
    std::optional<fault::InvariantAuditor> auditor;
    std::optional<mgr::EnergyManager> manager;
    os::RunResult res;
};

} // namespace

FixedRunOutput
runFixed(const wl::WorkloadParams &params, Frequency freq,
         const RunOptions &opts)
{
    const power::VfTable table = power::VfTable::haswell();
    WiredRun w(params, freq, table, opts, nullptr);
    w.run("benchmark '" + params.name + "' did not finish at " +
          freq.toString());

    FixedRunOutput out;
    w.report(out);
    out.freq = freq;
    out.record = w.rec.finalize();
    out.gcTime = w.inst.runtime->gcTime();
    out.allocatedBytes = w.inst.runtime->heap().totalAllocated();
    out.totals = w.inst.sys->totalCounters();
    out.events = w.res.events;
    return out;
}

ManagedRunOutput
runManaged(const wl::WorkloadParams &params,
           const mgr::ManagerConfig &mgr_cfg, const power::VfTable &table,
           const RunOptions &opts)
{
    WiredRun w(params, table.highest(), table, opts, &mgr_cfg);
    w.run("managed run of '" + params.name + "' did not finish");

    ManagedRunOutput out;
    w.report(out);
    out.decisions = w.manager->decisions();
    out.fallbacks = w.manager->fallbacks();
    out.averageGHz = w.inst.sys->coreDomain().averageGHz(0, w.res.totalTime);
    out.transitions = w.inst.sys->coreDomain().transitions();
    return out;
}

double
meanAbs(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += std::fabs(x);
    return s / static_cast<double>(xs.size());
}

} // namespace dvfs::exp

/**
 * @file
 * Figure 8: fault tolerance of the hardened energy manager.
 *
 * For every fault class the harness runs the same workload three
 * times under a seeded FaultPlan with the invariant auditor attached:
 * once pinned at the highest frequency (the faulted baseline) and
 * twice under the energy manager with the same seed. The two managed
 * runs must replay bit-identically (same fault-trace fingerprint,
 * same total time, same decision count), the realized slowdown versus
 * the faulted baseline must stay within Tolerable-Slowdown plus an
 * epsilon, and the auditor must report no invariant violations.
 *
 * A final scenario deliberately hangs the workload on a futex nobody
 * wakes, with the manager keeping the event queue alive forever: the
 * watchdog must convert that would-be infinite loop into a structured
 * diagnostic naming the blocked threads.
 *
 * Exit code is nonzero if any check fails, so this binary doubles as
 * an acceptance test for the fault subsystem.
 *
 * Usage: fig8_fault_tolerance [--seed=1445] [--threshold=0.05]
 *                             [--epsilon=0.05] [--threads=4]
 *                             [--items=600] [--quantum-us=50]
 */

#include <iostream>
#include <limits>
#include <memory>
#include <vector>

#include "bench_util.hh"
#include "exp/experiment.hh"
#include "exp/table.hh"
#include "fault/auditor.hh"
#include "fault/fault_plan.hh"
#include "mgr/energy_manager.hh"
#include "wl/builder.hh"
#include "wl/suite.hh"

using namespace dvfs;

namespace {

/** A thread replaying a fixed action list, then exiting. */
class ScriptProgram : public os::ThreadProgram
{
  public:
    explicit ScriptProgram(std::vector<os::Action> script)
        : _script(std::move(script))
    {
    }

    os::Action
    next(os::ThreadContext &) override
    {
        if (_pos < _script.size())
            return _script[_pos++];
        return os::Action::makeExit();
    }

  private:
    std::vector<os::Action> _script;
    std::size_t _pos = 0;
};

os::ThreadId
addScript(os::System &sys, const std::string &name,
          std::vector<os::Action> script)
{
    return sys.addThread(
        name, std::make_unique<ScriptProgram>(std::move(script)), false);
}

/**
 * The hung-futex scenario: two workers park on a futex that is never
 * woken, the main thread joins them, and the energy manager keeps
 * rescheduling quanta so the event queue never drains. Without the
 * watchdog this spins until the event-count panic; with it the run
 * stops with a diagnostic.
 */
bool
watchdogDemo(const power::VfTable &table, std::uint64_t seed)
{
    os::SystemConfig cfg = wl::defaultSystemConfig(table.highest());
    cfg.seed = seed;
    os::System sys(cfg);

    os::SyncId dead = sys.createFutex();
    os::ThreadId a = addScript(sys, "waiter-a",
                               {os::Action::makeCompute(50'000),
                                os::Action::makeFutexWait(dead)});
    os::ThreadId b = addScript(sys, "waiter-b",
                               {os::Action::makeCompute(80'000),
                                os::Action::makeFutexWait(dead)});
    os::ThreadId main_tid = addScript(sys, "main",
                                      {os::Action::makeJoin(a),
                                       os::Action::makeJoin(b)});
    sys.setMainThread(main_tid);

    pred::RunRecorder rec(sys);
    sys.addListener(&rec);

    fault::InvariantAuditor auditor(sys);
    auditor.observeEpochs(&rec);
    auditor.attach();

    mgr::EnergyManager manager(sys, rec, table, mgr::ManagerConfig{});
    manager.attach();

    os::RunResult res = sys.run();

    const fault::WatchdogReport &wd = auditor.watchdog();
    std::cout << "hung-futex scenario: run "
              << (res.aborted ? "aborted by watchdog" : "DID NOT ABORT")
              << " at " << ticksToUs(res.totalTime) << " us\n";
    if (wd.fired)
        std::cout << wd.message;

    bool ok = res.aborted && !res.finished && wd.fired &&
              wd.blockedThreads.size() == 3;
    if (!ok)
        std::cout << "FAIL: expected a watchdog abort with 3 blocked "
                     "threads\n";
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::FlagSet args("fig8_fault_tolerance",
                        "fault tolerance of the hardened energy manager "
                        "(Figure 8)");
    args.add("seed", "N", "fault and machine seed (default 1445)")
        .add("threshold", "X", "Tolerable-Slowdown (default 0.05)")
        .add("epsilon", "X", "slack over the threshold (default 0.05)")
        .add("threads", "N", "synthetic worker threads (default 4)")
        .add("items", "N", "work items per run (default 600)")
        .add("quantum-us", "N", "manager quantum in us (default 50)");
    args.parse(argc, argv);
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1445));
    const double threshold =
        args.getDouble("threshold", 0.05, 0.0, bench::kAnyFinite);
    const double epsilon =
        args.getDouble("epsilon", 0.05, 0.0, bench::kAnyFinite);
    const auto threads = static_cast<std::uint32_t>(args.getInt(
        "threads", 4, 1, std::numeric_limits<std::uint32_t>::max()));
    const auto items =
        static_cast<std::uint64_t>(args.getInt("items", 600, 1));
    const Tick quantum =
        static_cast<Tick>(
            args.getInt("quantum-us", 50, 1, bench::kMaxSimUs)) *
        kTicksPerUs;

    auto table_vf = power::VfTable::haswell();
    wl::WorkloadParams params = wl::syntheticSmall(threads, items);
    // Enough allocation pressure for several nursery collections, so
    // the gc-inflation class has collections to inflate.
    params.allocBytesPerItem = 8192;
    params.allocChunkBytes = 2048;

    std::cout << "Figure 8: fault tolerance (seed " << seed
              << ", Tolerable-Slowdown " << exp::Table::pct(threshold, 0)
              << " + " << exp::Table::pct(epsilon, 0) << " epsilon)\n\n";

    exp::Table table({"fault class", "injected", "slowdown", "bound",
                      "replay", "violations", "fallbacks"});

    constexpr fault::FaultClass kClasses[] = {
        fault::FaultClass::DramLatencySpike,
        fault::FaultClass::DramBankStall,
        fault::FaultClass::DvfsDelay,
        fault::FaultClass::DvfsReject,
        fault::FaultClass::SpuriousWake,
        fault::FaultClass::PreemptJitter,
        fault::FaultClass::GcInflation,
    };

    bool all_ok = true;
    for (fault::FaultClass cls : kClasses) {
        exp::RunOptions opts;
        opts.faults = fault::FaultConfig::only(cls, seed);
        opts.seed = seed;
        mgr::ManagerConfig mc;
        mc.quantum = quantum;
        mc.tolerableSlowdown = threshold;

        // Faulted baseline: same disturbances, pinned at the highest
        // point. The manager's guarantee is relative to this.
        auto base = exp::runFixed(params, table_vf.highest(), opts);
        auto m1 = exp::runManaged(params, mc, table_vf, opts);
        auto m2 = exp::runManaged(params, mc, table_vf, opts);
        const exp::AuditReport &ab = *base.audit;
        const exp::AuditReport &a1 = *m1.audit;

        const bool replay_ok =
            a1.faultFingerprint == m2.audit->faultFingerprint &&
            m1.totalTime == m2.totalTime &&
            m1.decisions.size() == m2.decisions.size();
        const double slowdown =
            static_cast<double>(m1.totalTime) /
                static_cast<double>(base.totalTime) -
            1.0;
        const bool bound_ok = slowdown <= threshold + epsilon;
        const bool clean = a1.violations.empty() &&
                           ab.violations.empty() && a1.finished &&
                           ab.finished;
        all_ok = all_ok && replay_ok && bound_ok && clean;

        table.addRow({faultClassName(cls),
                      std::to_string(a1.faultsInjected),
                      exp::Table::pct(slowdown),
                      bound_ok ? "ok" : "VIOLATED",
                      replay_ok ? "bit-identical" : "DIVERGED",
                      std::to_string(a1.violations.size() +
                                     ab.violations.size()),
                      std::to_string(m1.fallbacks)});
    }
    table.print(std::cout);
    std::cout << "\n";

    bool wd_ok = watchdogDemo(table_vf, seed);
    all_ok = all_ok && wd_ok;

    std::cout << "\noverall: " << (all_ok ? "PASS" : "FAIL") << "\n";
    return all_ok ? 0 : 1;
}

/**
 * @file
 * InvariantAuditor: a healthy machine audits clean, a deadlocked one
 * produces a structured watchdog diagnostic instead of hanging, the
 * fault-injected paths stay invariant-clean too, and auditing a
 * canonical run (exact or sampled, fixed or managed) changes nothing.
 */

#include <gtest/gtest.h>

#include "exp/experiment.hh"
#include "fault/auditor.hh"
#include "fault/fault_plan.hh"
#include "fault/injector.hh"
#include "mgr/energy_manager.hh"
#include "test_util.hh"
#include "wl/builder.hh"
#include "wl/suite.hh"

using namespace dvfs;
using namespace dvfs::test;

TEST(Auditor, CleanRunAuditsClean)
{
    power::VfTable table = power::VfTable::haswell();
    os::SystemConfig cfg = wl::defaultSystemConfig(table.highest());
    wl::BenchInstance inst =
        wl::buildBenchmark(wl::syntheticSmall(4, 200), cfg);

    pred::RunRecorder rec(*inst.sys);
    inst.sys->addListener(&rec);

    fault::InvariantAuditor auditor(*inst.sys);
    auditor.observeEpochs(&rec);
    auditor.attach();

    ASSERT_TRUE(inst.sys->run().finished);
    EXPECT_TRUE(auditor.clean()) << (auditor.violations().empty()
                                         ? ""
                                         : auditor.violations()[0].message);
    EXPECT_GT(auditor.audits(), 0u);
    EXPECT_GT(auditor.checksRun(), auditor.audits());
    EXPECT_FALSE(auditor.watchdog().fired);
}

TEST(Auditor, FaultInjectedRunStaysInvariantClean)
{
    // Faults disturb timing, never bookkeeping: every invariant must
    // survive all classes firing at once.
    power::VfTable table = power::VfTable::haswell();
    os::SystemConfig cfg = wl::defaultSystemConfig(table.highest());
    wl::BenchInstance inst =
        wl::buildBenchmark(wl::syntheticSmall(4, 200), cfg);

    pred::RunRecorder rec(*inst.sys);
    inst.sys->addListener(&rec);

    fault::FaultConfig fc;
    for (fault::FaultClass c :
         {fault::FaultClass::DramLatencySpike,
          fault::FaultClass::DramBankStall, fault::FaultClass::SpuriousWake,
          fault::FaultClass::PreemptJitter, fault::FaultClass::GcInflation})
        fc.classes.set(static_cast<std::size_t>(c));
    fault::FaultPlan plan(fc);
    fault::installFaults(*inst.sys, plan, inst.runtime.get());

    fault::InvariantAuditor auditor(*inst.sys);
    auditor.observeEpochs(&rec);
    auditor.attach();

    ASSERT_TRUE(inst.sys->run().finished);
    EXPECT_TRUE(auditor.clean()) << (auditor.violations().empty()
                                         ? ""
                                         : auditor.violations()[0].message);
}

TEST(Auditor, WatchdogConvertsDeadlockIntoDiagnostic)
{
    power::VfTable table = power::VfTable::haswell();
    os::SystemConfig cfg = wl::defaultSystemConfig(table.highest());
    os::System sys(cfg);

    // Two waiters park on a futex nobody wakes; the main thread joins
    // them. The energy manager keeps the event queue alive forever, so
    // without the watchdog this run would never return.
    os::SyncId dead = sys.createFutex();
    os::ThreadId a = addScript(sys, "waiter-a",
                               {os::Action::makeCompute(10'000),
                                os::Action::makeFutexWait(dead)});
    os::ThreadId main_tid =
        addScript(sys, "main", {os::Action::makeJoin(a)});
    sys.setMainThread(main_tid);

    pred::RunRecorder rec(sys);
    sys.addListener(&rec);

    fault::InvariantAuditor auditor(sys);
    auditor.observeEpochs(&rec);
    auditor.attach();

    mgr::EnergyManager manager(sys, rec, table, mgr::ManagerConfig{});
    manager.attach();

    os::RunResult res = sys.run();

    EXPECT_FALSE(res.finished);
    EXPECT_TRUE(res.aborted);
    ASSERT_TRUE(auditor.watchdog().fired);
    EXPECT_EQ(auditor.watchdog().blockedThreads.size(), 2u);
    EXPECT_NE(auditor.watchdog().message.find("waiter-a"),
              std::string::npos);
    EXPECT_NE(res.abortReason.find("watchdog"), std::string::npos);
    EXPECT_GE(auditor.watchdog().tick,
              auditor.watchdog().stalledSince +
                  fault::InvariantAuditor::kWatchdogTimeout);
}

TEST(Auditor, WatchdogSparesSlowButLiveRuns)
{
    // A run that is merely slow (healthy workload, many audits) must
    // not trip the watchdog: instructions keep retiring.
    power::VfTable table = power::VfTable::haswell();
    os::SystemConfig cfg = wl::defaultSystemConfig(table.highest());
    wl::BenchInstance inst =
        wl::buildBenchmark(wl::syntheticSmall(2, 100), cfg);

    pred::RunRecorder rec(*inst.sys);
    inst.sys->addListener(&rec);

    fault::InvariantAuditor auditor(*inst.sys);
    auditor.attach();

    ASSERT_TRUE(inst.sys->run().finished);
    EXPECT_FALSE(auditor.watchdog().fired);
}

TEST(AuditorDeathTest, DoubleAttachIsFatal)
{
    power::VfTable table = power::VfTable::haswell();
    os::System sys(wl::defaultSystemConfig(table.highest()));
    fault::InvariantAuditor auditor(sys);
    auditor.attach();
    EXPECT_EXIT(auditor.attach(), ::testing::ExitedWithCode(1), "twice");
}

namespace {

/**
 * An audited run that finished and found nothing; it injected faults
 * exactly when @p injects.
 */
void
expectCleanAudit(const std::optional<exp::AuditReport> &audit,
                 const std::string &what, bool injects = false)
{
    ASSERT_TRUE(audit.has_value()) << what;
    EXPECT_TRUE(audit->finished) << what;
    EXPECT_FALSE(audit->aborted) << what;
    EXPECT_GT(audit->audits, 0u) << what;
    if (injects)
        EXPECT_GT(audit->faultsInjected, 0u) << what;
    else
        EXPECT_EQ(audit->faultsInjected, 0u) << what;
    EXPECT_TRUE(audit->violations.empty())
        << what << ": " << audit->violations.front().message;
}

} // namespace

TEST(Auditor, AuditedRunsChangeNothing)
{
    // RunOptions::faults = none() attaches the auditor without
    // injecting: it must watch the fast paths and leave their timing
    // and the manager's decisions exactly as an unaudited run has them.
    const wl::WorkloadParams params = wl::benchmarkByName("pmd.scale");

    for (exp::SimMode mode : {exp::SimMode::Exact, exp::SimMode::Sampled}) {
        exp::RunOptions plain;
        plain.mode = mode;
        exp::RunOptions audited = plain;
        audited.faults = fault::FaultConfig::none();

        const auto p = exp::runFixed(params, Frequency::ghz(1.0), plain);
        const auto a = exp::runFixed(params, Frequency::ghz(1.0), audited);
        const std::string what =
            std::string("fixed ") + exp::simModeName(mode);
        EXPECT_FALSE(p.audit.has_value()) << what;
        expectCleanAudit(a.audit, what);
        EXPECT_EQ(a.totalTime, p.totalTime) << what;
    }

    // The fig10 managed-sampling recipe.
    exp::RunOptions plain;
    plain.mode = exp::SimMode::Sampled;
    plain.sampling.detailWindow = 10 * kTicksPerUs;
    plain.sampling.maxGapWindow = 7840 * kTicksPerUs;
    plain.sampling.driftThresholdPermille = 200;
    exp::RunOptions audited = plain;
    audited.faults = fault::FaultConfig::none();

    const power::VfTable table = power::VfTable::haswell();
    const mgr::ManagerConfig mc;
    const auto p = exp::runManaged(params, mc, table, plain);
    const auto a = exp::runManaged(params, mc, table, audited);
    expectCleanAudit(a.audit, "managed sampled");
    EXPECT_EQ(a.totalTime, p.totalTime);
    ASSERT_EQ(a.decisions.size(), p.decisions.size());
    for (std::size_t i = 0; i < p.decisions.size(); ++i) {
        EXPECT_EQ(a.decisions[i].tick, p.decisions[i].tick) << i;
        EXPECT_EQ(a.decisions[i].chosen, p.decisions[i].chosen) << i;
    }
    EXPECT_EQ(a.transitions, p.transitions);
}

TEST(Auditor, SampledRunsUnderEveryFaultClassStayClean)
{
    // Sampled mode fast-forwards between detail windows and forces
    // windows around transitions and collections; faults landing on
    // either side of a window must leave every invariant intact.
    wl::WorkloadParams synthetic = wl::syntheticSmall(4, 600);
    synthetic.allocBytesPerItem = 8192; // fig8's allocation pressure
    synthetic.allocChunkBytes = 2048;
    const power::VfTable table = power::VfTable::haswell();

    for (const wl::WorkloadParams &params :
         {synthetic, wl::benchmarkByName("pmd.scale")}) {
        for (std::size_t i = 0; i < fault::kNumFaultClasses; ++i) {
            const auto cls = static_cast<fault::FaultClass>(i);
            exp::RunOptions opts;
            opts.mode = exp::SimMode::Sampled;
            opts.faults = fault::FaultConfig::only(cls, 1445);
            const std::string what =
                params.name + " " + fault::faultClassName(cls);

            // A pinned run makes no transitions to disturb.
            const bool dvfs = cls == fault::FaultClass::DvfsDelay ||
                              cls == fault::FaultClass::DvfsReject;
            const auto f = exp::runFixed(params, table.highest(), opts);
            expectCleanAudit(f.audit, "fixed " + what, !dvfs);
            const auto m =
                exp::runManaged(params, mgr::ManagerConfig{}, table, opts);
            expectCleanAudit(m.audit, "managed " + what, true);
        }
    }
}

/**
 * @file
 * Figure 2 reproduction: the worked epoch-decomposition example.
 *
 * Recreates the paper's two-thread scenario: t0 and t1 run in
 * parallel; t1 attempts to enter a critical section t0 already holds,
 * is scheduled out (futex wait), and is woken when t0 leaves the
 * critical section. The harness prints (a) the raw futex/sched event
 * trace, (b) the epoch decomposition with per-thread busy time, and
 * (c)/(d) the per-epoch vs across-epoch CTP predictions for a target
 * frequency — the exact narrative of Figure 2.
 *
 * Usage: fig2_epoch_walkthrough [--csv=PREFIX]
 */

#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hh"
#include "exp/export.hh"
#include "exp/table.hh"
#include "pred/predictors.hh"
#include "pred/record.hh"
#include "wl/builder.hh"

using namespace dvfs;

namespace {

/** t0: compute, enter the critical section, hold it, leave, finish. */
class HolderProgram : public os::ThreadProgram
{
  public:
    HolderProgram(os::SyncId m, os::ThreadId join_target = os::kNoThread)
        : _m(m), _join(join_target)
    {
    }

    os::Action
    next(os::ThreadContext &) override
    {
        switch (_step++) {
          case 0: return os::Action::makeCompute(40'000);   // a
          case 1: return os::Action::makeMutexLock(_m);
          case 2: return os::Action::makeCompute(120'000);  // b (in CS)
          case 3: return os::Action::makeMutexUnlock(_m);
          case 4: return os::Action::makeCompute(60'000);   // c
          case 5:
            if (_join != os::kNoThread)
                return os::Action::makeJoin(_join);
            [[fallthrough]];
          default: return os::Action::makeExit();
        }
    }

  private:
    os::SyncId _m;
    os::ThreadId _join;
    int _step = 0;
};

/** t1: compute slightly longer, then block on the critical section. */
class WaiterProgram : public os::ThreadProgram
{
  public:
    explicit WaiterProgram(os::SyncId m) : _m(m) {}

    os::Action
    next(os::ThreadContext &) override
    {
        switch (_step++) {
          case 0: return os::Action::makeCompute(60'000);   // x
          case 1: return os::Action::makeMutexLock(_m);
          case 2: return os::Action::makeCompute(70'000);   // z (in CS)
          case 3: return os::Action::makeMutexUnlock(_m);
          default: return os::Action::makeExit();
        }
    }

  private:
    os::SyncId _m;
    int _step = 0;
};

/** The run's sync-event trace, for panel (a) and the events CSV. */
class EventLog : public os::SyncListener
{
  public:
    void
    onSyncEvent(const os::SyncEvent &ev, const os::System &) override
    {
        events.push_back(ev);
    }

    std::vector<os::SyncEvent> events;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::FlagSet args("fig2_epoch_walkthrough",
                        "the worked epoch-decomposition example "
                        "(Figure 2)");
    args.add("csv", "PREFIX",
             "also write PREFIX_epochs.csv, PREFIX_events.csv and "
             "PREFIX_threads.csv");
    args.parse(argc, argv);

    os::SystemConfig cfg = wl::defaultSystemConfig(Frequency::ghz(1.0));
    cfg.cores = 2;
    os::System sys(cfg);

    os::SyncId m = sys.createMutex();
    os::ThreadId t1 = sys.addThread("t1",
                                    std::make_unique<WaiterProgram>(m));
    os::ThreadId t0 = sys.addThread("t0",
                                    std::make_unique<HolderProgram>(m, t1));
    sys.setMainThread(t0);

    pred::RunRecorder rec(sys);
    sys.addListener(&rec);
    EventLog log;
    sys.addListener(&log);

    auto res = sys.run();
    auto record = rec.finalize();

    std::cout << "Figure 2 walkthrough: two threads, one critical "
                 "section, base 1 GHz\n\n(a) event trace:\n";
    for (const auto &ev : log.events) {
        std::cout << "  t=" << exp::Table::fmt(ticksToUs(ev.tick), 2)
                  << " us  " << os::syncEventKindName(ev.kind);
        if (ev.tid != os::kNoThread)
            std::cout << "  thread=" << sys.thread(ev.tid).name;
        std::cout << "\n";
    }

    std::cout << "\n(b) epoch decomposition:\n";
    exp::Table table({"epoch", "start (us)", "len (us)", "active",
                      "closed by", "stalled"});
    std::size_t i = 0;
    for (const auto &ep : record.epochs) {
        std::string active;
        for (const auto &et : ep.active) {
            if (!active.empty())
                active += ",";
            active += sys.thread(et.tid).name;
        }
        table.addRow({std::to_string(i++),
                      exp::Table::fmt(ticksToUs(ep.start), 2),
                      exp::Table::fmt(ticksToUs(ep.duration()), 2), active,
                      os::syncEventKindName(ep.boundary),
                      ep.stallTid != os::kNoThread
                          ? sys.thread(ep.stallTid).name
                          : "-"});
    }
    table.print(std::cout);

    const Frequency target = Frequency::ghz(2.0);
    pred::DepPredictor per_epoch({pred::BaseEstimator::Crit, true}, false);
    pred::DepPredictor across({pred::BaseEstimator::Crit, true}, true);
    const std::string prefix = args.get("csv");
    if (!prefix.empty()) {
        // The machine-readable artifacts next to the human-readable
        // walkthrough.
        std::ofstream fe(prefix + "_epochs.csv");
        exp::writeEpochsCsv(fe, record);
        std::ofstream fv(prefix + "_events.csv");
        exp::writeEventsCsv(fv, log.events);
        std::ofstream ft(prefix + "_threads.csv");
        exp::writeThreadsCsv(ft, record);
        std::cout << "\nCSV artifacts written with prefix '" << prefix
                  << "_'\n";
    }

    std::cout << "\n(c) per-epoch CTP prediction @ " << target.toString()
              << ": "
              << exp::Table::fmt(
                     ticksToUs(per_epoch.predict(record, target)), 2)
              << " us\n(d) across-epoch CTP prediction @ "
              << target.toString() << ": "
              << exp::Table::fmt(ticksToUs(across.predict(record, target)),
                                 2)
              << " us\n    measured at 1 GHz: "
              << exp::Table::fmt(ticksToUs(res.totalTime), 2) << " us\n";
    return 0;
}

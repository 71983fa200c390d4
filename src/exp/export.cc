#include "exp/export.hh"

#include "os/trace.hh"

namespace dvfs::exp {

void
writeEpochsCsv(std::ostream &os, const pred::RunRecord &rec)
{
    os << "epoch,start_ns,end_ns,boundary,stall_tid,tid,busy_ns,"
          "crit_ns,leading_ns,stall_ns,sqfull_ns,instructions,"
          "dram_loads,store_lines\n";
    std::size_t idx = 0;
    for (const pred::Epoch ep : rec.epochs) {
        for (const pred::EpochThread et : ep.active) {
            os << idx << ',' << ticksToNs(ep.start) << ','
               << ticksToNs(ep.end) << ','
               << os::syncEventKindName(ep.boundary) << ',';
            if (ep.stallTid != os::kNoThread)
                os << ep.stallTid;
            os << ',' << et.tid << ',' << ticksToNs(et.delta.busyTime)
               << ',' << ticksToNs(et.delta.critNonscaling) << ','
               << ticksToNs(et.delta.leadingNonscaling) << ','
               << ticksToNs(et.delta.stallNonscaling) << ','
               << ticksToNs(et.delta.sqFullTime) << ','
               << et.delta.instructions << ',' << et.delta.dramLoads
               << ',' << et.delta.storeLines << '\n';
        }
        if (ep.active.empty()) {
            os << idx << ',' << ticksToNs(ep.start) << ','
               << ticksToNs(ep.end) << ','
               << os::syncEventKindName(ep.boundary)
               << ",,,,,,,,,,\n";
        }
        ++idx;
    }
}

void
writeEventsCsv(std::ostream &os, const std::vector<os::SyncEvent> &events)
{
    os << "tick_ns,kind,tid,futex\n";
    for (const auto &ev : events) {
        os << ticksToNs(ev.tick) << ','
           << os::syncEventKindName(ev.kind) << ',';
        if (ev.tid != os::kNoThread)
            os << ev.tid;
        os << ',';
        if (ev.futex != os::kNoSync)
            os << ev.futex;
        os << '\n';
    }
}

void
writeThreadsCsv(std::ostream &os, const pred::RunRecord &rec)
{
    os << "tid,service,spawn_ns,exit_ns,busy_ns,instructions,crit_ns,"
          "leading_ns,stall_ns,sqfull_ns,l1_hits,l2_hits,l3_hits,"
          "dram_loads,miss_clusters,store_bursts,store_lines\n";
    for (const auto &t : rec.threads) {
        const auto &c = t.totals;
        os << t.tid << ',' << (t.service ? 1 : 0) << ','
           << ticksToNs(t.spawnTick) << ',' << ticksToNs(t.exitTick)
           << ',' << ticksToNs(c.busyTime) << ',' << c.instructions
           << ',' << ticksToNs(c.critNonscaling) << ','
           << ticksToNs(c.leadingNonscaling) << ','
           << ticksToNs(c.stallNonscaling) << ','
           << ticksToNs(c.sqFullTime) << ',' << c.l1Hits << ','
           << c.l2Hits << ',' << c.l3Hits << ',' << c.dramLoads << ','
           << c.missClusters << ',' << c.storeBursts << ','
           << c.storeLines << '\n';
    }
}

void
writeDecisionsCsv(
    std::ostream &os,
    const std::vector<mgr::EnergyManager::Decision> &decisions)
{
    os << "tick_ns,freq_mhz,predicted_slowdown,path\n";
    for (const auto &d : decisions) {
        os << ticksToNs(d.tick) << ',' << d.chosen.toMHz() << ','
           << d.predictedSlowdown << ','
           << (d.usedEpochs ? "epochs" : "aggregate") << '\n';
    }
}

} // namespace dvfs::exp

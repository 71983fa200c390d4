/**
 * @file
 * Machine-readable export of run artifacts.
 *
 * Writes the epoch stream, a sync-event trace, per-thread
 * summaries, and energy-manager decisions as CSV so results can be
 * analysed or plotted outside the harness (the binaries' ASCII tables
 * are for humans; these files are for scripts).
 */

#ifndef DVFS_EXP_EXPORT_HH
#define DVFS_EXP_EXPORT_HH

#include <ostream>
#include <vector>

#include "mgr/energy_manager.hh"
#include "pred/record.hh"

namespace dvfs::exp {

/**
 * Epochs as CSV:
 * `epoch,start_ns,end_ns,boundary,stall_tid,active_tids,busy_ns,...`
 * One row per (epoch, active thread) pair, so per-thread columns stay
 * scalar.
 */
void writeEpochsCsv(std::ostream &os, const pred::RunRecord &rec);

/**
 * Sync events, as a SyncListener collected them:
 * `tick_ns,kind,tid,futex`.
 */
void writeEventsCsv(std::ostream &os,
                    const std::vector<os::SyncEvent> &events);

/**
 * Per-thread summary: spawn/exit, busy time, and every DVFS counter
 * a predictor may read.
 */
void writeThreadsCsv(std::ostream &os, const pred::RunRecord &rec);

/** Energy-manager decisions: `tick_ns,freq_mhz,pred_slowdown,path`. */
void writeDecisionsCsv(
    std::ostream &os,
    const std::vector<mgr::EnergyManager::Decision> &decisions);

} // namespace dvfs::exp

#endif // DVFS_EXP_EXPORT_HH

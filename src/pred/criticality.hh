/**
 * @file
 * Criticality stacks from the synchronization-epoch stream.
 *
 * Related work the paper builds on (Section VII-B, Du Bois et al.
 * [13]) identifies critical threads by monitoring synchronization
 * behaviour: each instant of execution is charged to the threads
 * running at that instant, split evenly — a thread that is frequently
 * the *only* runner accumulates criticality fast, threads that always
 * run alongside others share it. Summed per thread, the "criticality
 * stack" decomposes total execution time exactly.
 *
 * The epoch stream DEP already maintains contains exactly the needed
 * information (which threads ran, for how long), so the stack comes
 * for free. It is useful as a diagnostic (which thread should a
 * per-core DVFS policy accelerate?); the criticality example prints
 * it.
 */

#ifndef DVFS_PRED_CRITICALITY_HH
#define DVFS_PRED_CRITICALITY_HH

#include <cstdint>
#include <vector>

#include "pred/record.hh"

namespace dvfs::pred {

/** One thread's slice of the criticality stack. */
struct CriticalityShare {
    os::ThreadId tid = os::kNoThread;
    /** Accumulated criticality (time units). */
    Tick criticality = 0;
    /** Time the thread was running at all. */
    Tick activeTime = 0;
    /** criticality / total run time. */
    double fraction = 0.0;
};

/**
 * The criticality stack of one run.
 */
class CriticalityStack
{
  public:
    /**
     * Build the stack from a run record.
     *
     * Every epoch's duration is split evenly over its active threads
     * (an epoch with no active thread — everyone asleep — is charged
     * to a synthetic "idle" share, reported separately).
     */
    explicit CriticalityStack(const RunRecord &rec);

    /** Per-thread shares, sorted by descending criticality. */
    const std::vector<CriticalityShare> &shares() const { return _shares; }

    /** Time during which no thread was scheduled. */
    Tick idleTime() const { return _idle; }

    /** The most critical thread (kNoThread for an empty record). */
    os::ThreadId mostCritical() const;

    /**
     * Invariant of the construction: idle + sum of criticality equals
     * the record's total time (up to the final partial epoch).
     */
    Tick accountedTime() const;

  private:
    std::vector<CriticalityShare> _shares;
    Tick _idle = 0;
};

} // namespace dvfs::pred

#endif // DVFS_PRED_CRITICALITY_HH

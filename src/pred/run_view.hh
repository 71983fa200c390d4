/**
 * @file
 * RunView: the abstract observation surface of one recorded run.
 *
 * DEP+BURST's premise (PAPER.md Section III) is that a predictor needs
 * only the epoch decomposition, per-thread counter deltas, thread
 * summaries and GC phase marks of one base-frequency run — never the
 * machine that produced them. RunView is that contract as an
 * interface: Predictor::predict consumes a RunView, so the predictor
 * layer is decoupled from the simulator's in-memory layout and the
 * same predictor runs unchanged against
 *
 *  - a live in-memory record (RecordView over pred::RunRecord), or
 *  - a run loaded from a .dvfstrace file (trace::LoadedTrace),
 *
 * with bit-identical results: both backends expose the same field
 * values, and the predictors are pure functions of them.
 *
 * The accessors return references to stored containers rather than
 * iterator abstractions on purpose: every backend materialises the
 * epoch store anyway, and a PredictionTable (table.hh) is gathered
 * from them in one pass. The energy manager's per-quantum table is
 * gathered from a range of the RunRecorder's live epochs, not from a
 * RunView.
 */

#ifndef DVFS_PRED_RUN_VIEW_HH
#define DVFS_PRED_RUN_VIEW_HH

#include <vector>

#include "pred/record.hh"
#include "sim/time.hh"

namespace dvfs::pred {

/**
 * Everything a DVFS predictor may legally observe about one run.
 *
 * Implementations must return stable references: the containers live
 * as long as the view does.
 */
class RunView
{
  public:
    virtual ~RunView() = default;

    /** Frequency of the recorded (base) run. */
    virtual Frequency baseFreq() const = 0;

    /** Total wall-clock time of the run, in ticks. */
    virtual Tick totalTime() const = 0;

    /** The synchronization-epoch decomposition, in tick order. */
    virtual const EpochStore &epochs() const = 0;

    /** Whole-run per-thread summaries, indexed by ThreadId. */
    virtual const std::vector<ThreadSummary> &threads() const = 0;

    /** GC phase boundaries (the COOP signal), in tick order. */
    virtual const std::vector<GcPhaseMark> &gcMarks() const = 0;
};

/**
 * The live backend: a RunView over an in-memory RunRecord.
 *
 * Non-owning — the record must outlive the view (it is a cheap
 * adapter, constructed at the call site).
 */
class RecordView final : public RunView
{
  public:
    explicit RecordView(const RunRecord &rec) : _rec(&rec) {}

    Frequency baseFreq() const override { return _rec->baseFreq; }
    Tick totalTime() const override { return _rec->totalTime; }

    const EpochStore &
    epochs() const override
    {
        return _rec->epochs;
    }

    const std::vector<ThreadSummary> &
    threads() const override
    {
        return _rec->threads;
    }

    const std::vector<GcPhaseMark> &
    gcMarks() const override
    {
        return _rec->gcMarks;
    }

    /** The underlying record. */
    const RunRecord &record() const { return *_rec; }

  private:
    const RunRecord *_rec;
};

} // namespace dvfs::pred

#endif // DVFS_PRED_RUN_VIEW_HH

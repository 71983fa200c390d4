/**
 * @file
 * Whole-application DVFS performance predictors.
 *
 * All predictors implement the same contract: given the RunRecord of a
 * base-frequency run, estimate the total execution time at a target
 * frequency. They differ in decomposition granularity:
 *
 *  - M+CRIT  (Section II-C): one interval per thread — its lifetime;
 *    the application prediction is the slowest thread's prediction.
 *    Wait time lands in the scaling component, the paper's motivating
 *    flaw.
 *  - COOP    (Section II-C): the timeline is cut only at GC phase
 *    boundaries; M+CRIT is applied per phase and the phases are
 *    summed.
 *  - DEP     (Section III): the timeline is cut at every
 *    synchronization epoch; per epoch the critical thread is found via
 *    per-epoch CTP (max) or across-epoch CTP (Algorithm 1, with delta
 *    counters carrying thread slack between epochs).
 *
 * Each takes a ModelSpec, so every combination the paper evaluates
 * (M+CRIT, COOP, DEP, each with and without BURST, and DEP+BURST with
 * per-epoch vs across-epoch CTP) is one constructor call.
 *
 * Each family has one walk, over a PredictionTable (table.hh), that
 * evaluates up to kTargetChunk targets in a single pass: the targets
 * are the inner loop, so a row's split is computed once per pass
 * rather than once per target. The energy manager predicts each
 * quantum through the same walk, from a table of the quantum's epochs.
 */

#ifndef DVFS_PRED_PREDICTORS_HH
#define DVFS_PRED_PREDICTORS_HH

#include <algorithm>
#include <memory>
#include <span>
#include <string>

#include "pred/record.hh"
#include "pred/run_view.hh"
#include "pred/scaling.hh"
#include "pred/table.hh"
#include "sim/time.hh"

namespace dvfs::pred {

/**
 * Interface of a whole-run execution-time predictor.
 *
 * Predictors observe a run exclusively through the RunView interface
 * (run_view.hh), prepared once into a PredictionTable, so the same
 * instance predicts from a live RunRecord or from a loaded .dvfstrace
 * with bit-identical results.
 */
class Predictor
{
  public:
    /** Targets one walk of a table evaluates; longer lists take more. */
    static constexpr std::size_t kTargetChunk = 8;

    virtual ~Predictor() = default;

    /** Human-readable name, e.g. "DEP+BURST". */
    virtual std::string name() const = 0;

    /**
     * Estimate total execution time at every target: @p out[i] is the
     * estimate at @p targets[i] (the spans have equal sizes). Walks
     * the table once per kTargetChunk targets.
     */
    void predict(const PredictionTable &table,
                 std::span<const Frequency> targets,
                 std::span<Tick> out) const;

    /** Estimate total execution time at @p target. */
    Tick
    predict(const PredictionTable &table, Frequency target) const
    {
        Tick out = 0;
        predict(table, {&target, 1}, {&out, 1});
        return out;
    }

    /** One-off estimate from a view (prepares the rows it reads). */
    Tick
    predict(const RunView &run, Frequency target) const
    {
        return predict(PredictionTable(run, tableRows()), target);
    }

    /** Convenience overload for the live in-memory backend. */
    Tick
    predict(const RunRecord &rec, Frequency target) const
    {
        return predict(RecordView(rec), target);
    }

    /**
     * Scan @p ascending lowest first, one walk of @p table per
     * kTargetChunk targets, and hand each estimate in order to
     * @p decides(index, estimate) until it returns true: the first
     * target that decides ends the scan, and later chunks are never
     * walked. The energy manager and dvfsd's OptimalVf query both pick
     * their operating point this way, each with its own test.
     */
    template <class Decides>
    void
    scanAscending(const PredictionTable &table,
                  std::span<const Frequency> ascending,
                  Decides &&decides) const
    {
        Tick est[kTargetChunk];
        for (std::size_t first = 0; first < ascending.size();
             first += kTargetChunk) {
            const std::size_t n =
                std::min(kTargetChunk, ascending.size() - first);
            predict(table, ascending.subspan(first, n), {est, n});
            for (std::size_t k = 0; k < n; ++k) {
                if (decides(first + k, est[k]))
                    return;
            }
        }
    }

    /** Signed relative error vs. @p actual: estimated/actual - 1. */
    static double
    relativeError(Tick estimated, Tick actual)
    {
        return static_cast<double>(estimated) /
                   static_cast<double>(actual) -
               1.0;
    }

  protected:
    /** The row sets predictChunk() reads (PredictionTable::k*Rows). */
    virtual unsigned tableRows() const = 0;

    /**
     * The family's walk: estimates at @p ratio[0..n) (f_base/f_target,
     * n <= kTargetChunk) into @p out[0..n).
     */
    virtual void predictChunk(const PredictionTable &table,
                              const double *ratio, std::size_t n,
                              Tick *out) const = 0;
};

/**
 * M+CRIT: per-thread whole-lifetime scaling, slowest thread wins.
 */
class MCritPredictor : public Predictor
{
  public:
    explicit MCritPredictor(ModelSpec spec) : _spec(spec) {}

    std::string name() const override;

  protected:
    unsigned
    tableRows() const override
    {
        return PredictionTable::kMCritRows;
    }

    void predictChunk(const PredictionTable &table, const double *ratio,
                      std::size_t n, Tick *out) const override;

  private:
    ModelSpec _spec;
};

/**
 * COOP: M+CRIT applied independently to application and collector
 * phases (cut at the GC begin/end signals), summed.
 */
class CoopPredictor : public Predictor
{
  public:
    explicit CoopPredictor(ModelSpec spec) : _spec(spec) {}

    std::string name() const override;

  protected:
    unsigned
    tableRows() const override
    {
        return PredictionTable::kCoopRows;
    }

    void predictChunk(const PredictionTable &table, const double *ratio,
                      std::size_t n, Tick *out) const override;

  private:
    ModelSpec _spec;
};

/**
 * DEP: synchronization-epoch decomposition with critical-thread
 * prediction, per-epoch or across-epoch (Algorithm 1).
 */
class DepPredictor : public Predictor
{
  public:
    /**
     * @param spec          Per-thread estimator (CRIT for the paper's
     *                      DEP; +burst for DEP+BURST).
     * @param across_epochs true = across-epoch CTP (Algorithm 1),
     *                      false = per-epoch CTP.
     */
    DepPredictor(ModelSpec spec, bool across_epochs = true)
        : _spec(spec), _acrossEpochs(across_epochs)
    {
    }

    std::string name() const override;

  protected:
    unsigned
    tableRows() const override
    {
        return PredictionTable::kEpochRows;
    }

    void predictChunk(const PredictionTable &table, const double *ratio,
                      std::size_t n, Tick *out) const override;

  private:
    ModelSpec _spec;
    bool _acrossEpochs;
};

} // namespace dvfs::pred

#endif // DVFS_PRED_PREDICTORS_HH

/**
 * @file
 * PredictionTable: the target-independent part of every predictor,
 * computed once per run.
 *
 * Every predictor family reduces to the same per-row law (scaling.hh)
 * applied to (thread, interval) rows and then combined: M+CRIT takes
 * the slowest whole-lifetime row, COOP sums the slowest row of each GC
 * phase, DEP walks the epoch rows (per-epoch maximum, or Algorithm 1's
 * delta counters). Which rows exist, which are eligible and what they
 * hold does not depend on the target frequency or on the ModelSpec, so
 * a table gathers them once, from any RunView (or, for the energy
 * manager's quantum, a range of a live EpochStore), into flat arrays:
 *
 *  - epoch rows: one SpanRow per active thread per epoch (span = busy
 *    time), with per-epoch row offsets, the idle duration of an epoch
 *    nobody ran in, and Algorithm 1's stall thread;
 *  - M+CRIT rows: the threads that are not pure coordinators;
 *  - COOP rows: per GC phase, each eligible thread's summed counters
 *    and its overlap with the phase.
 *
 * Predictor::predict walks a table for several targets at once
 * (predictors.hh). Each row carries only the six counter fields a
 * ModelSpec can read, not the 128-byte PerfCounters block.
 */

#ifndef DVFS_PRED_TABLE_HH
#define DVFS_PRED_TABLE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "pred/run_view.hh"
#include "pred/scaling.hh"
#include "sim/time.hh"

namespace dvfs::pred {

/** One thread over one interval: its length and six counter fields. */
struct SpanRow {
    /**
     * Thread slot: the ThreadId, except in epoch rows of a trace whose
     * ids run far past its row count, which are renumbered densely.
     */
    std::uint32_t tid = 0;
    /** Interval length at the base frequency (busy time for epochs). */
    Tick span = 0;
    /** Non-scaling counters, indexed by BaseEstimator. */
    std::array<Tick, 4> nonscaling{};
    /** Store-queue-full time (the BURST term). */
    Tick sqFull = 0;

    /**
     * Row over @p span with the ModelSpec fields of @p c: a
     * PerfCounters block, or a stored epoch row, which reads only
     * these fields.
     */
    template <typename Counters>
    static SpanRow
    of(std::uint32_t tid, Tick span, const Counters &c)
    {
        SpanRow r;
        r.tid = tid;
        r.span = span;
        r.add(c);
        return r;
    }

    /** Accumulate the ModelSpec fields of @p c (as of()). */
    template <typename Counters>
    void
    add(const Counters &c)
    {
        using C = uarch::PerfCounters;
        nonscaling[static_cast<std::size_t>(BaseEstimator::StallTime)] +=
            field<&C::stallNonscaling>(c);
        nonscaling[static_cast<std::size_t>(BaseEstimator::LeadingLoads)] +=
            field<&C::leadingNonscaling>(c);
        nonscaling[static_cast<std::size_t>(BaseEstimator::Crit)] +=
            field<&C::critNonscaling>(c);
        nonscaling[static_cast<std::size_t>(BaseEstimator::Oracle)] +=
            field<&C::trueMemTime>(c);
        sqFull += field<&C::sqFullTime>(c);
    }

    /** Field @p M of a PerfCounters block or of a stored row. */
    template <std::uint64_t uarch::PerfCounters::*M>
    static std::uint64_t
    field(const uarch::PerfCounters &c)
    {
        return c.*M;
    }

    template <std::uint64_t uarch::PerfCounters::*M>
    static std::uint64_t
    field(const EpochStore::RowIterator &row)
    {
        return row.template field<M>();
    }

    /** The row's split under @p spec (same as nonscalingTime()). */
    SpanSplit
    split(const ModelSpec &spec) const
    {
        Tick n = nonscaling[static_cast<std::size_t>(spec.base)];
        if (spec.burst)
            n += sqFull;
        return SpanSplit(span, n);
    }
};

/** The prepared, target-independent rows of one run. */
class PredictionTable
{
  public:
    /** Marks an epoch without a stall thread. */
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    /** One epoch: rows [rowBegin, rowEnd) of epochRows(). */
    struct EpochEntry {
        std::uint32_t rowBegin = 0;
        std::uint32_t rowEnd = 0;
        /** Algorithm 1's stall_tid as a slot, or kNoSlot. */
        std::uint32_t stall = kNoSlot;
        /** Duration of an epoch with no active thread; 0 otherwise. */
        Tick idle = 0;

        bool empty() const { return rowBegin == rowEnd; }
    };

    /** Row sets, one per family; a table holds any combination. */
    static constexpr unsigned kEpochRows = 1;  ///< DEP, both CTP modes
    static constexpr unsigned kMCritRows = 2;
    static constexpr unsigned kCoopRows = 4;
    static constexpr unsigned kAllRows = 7;

    /** Gather the row sets @p parts from @p run (one pass each). */
    explicit PredictionTable(const RunView &run, unsigned parts = kAllRows);

    /**
     * Only the epoch rows (DEP) of epochs [@p first, @p last) of
     * @p epochs, recorded at @p base: the energy manager's table of
     * one quantum. totalTime() is 0.
     */
    PredictionTable(const EpochStore &epochs, std::size_t first,
                    std::size_t last, Frequency base);

    /** True if the table holds every row set in @p parts. */
    bool holds(unsigned parts) const { return (_parts & parts) == parts; }

    Frequency baseFreq() const { return _baseFreq; }
    Tick totalTime() const { return _totalTime; }

    /** DEP: epochs in tick order, and their rows. */
    const std::vector<EpochEntry> &epochs() const { return _epochs; }
    const std::vector<SpanRow> &epochRows() const { return _epochRows; }

    /** Slots the epoch rows use (Algorithm 1's delta counters). */
    std::size_t threadSlots() const { return _threadSlots; }

    /** Most rows in one epoch. */
    std::size_t widestEpoch() const { return _widestEpoch; }

    /** M+CRIT: the threads that are not pure coordinators. */
    const std::vector<SpanRow> &mcritRows() const { return _mcritRows; }

    /** COOP: eligible rows, phase by phase. */
    const std::vector<SpanRow> &coopRows() const { return _coopRows; }

    /** COOP: end offset into coopRows() of each phase with rows. */
    const std::vector<std::uint32_t> &coopPhaseEnds() const
    {
        return _coopPhaseEnds;
    }

    /** Heap and object bytes held (counted in the TraceStore bound). */
    std::size_t bytes() const;

  private:
    void buildEpochs(const EpochStore &epochs, std::size_t first,
                     std::size_t last);
    void buildMCrit(const RunView &run);
    void buildCoop(const RunView &run);

    unsigned _parts;
    Frequency _baseFreq;
    Tick _totalTime = 0;
    std::vector<EpochEntry> _epochs;
    std::vector<SpanRow> _epochRows;
    std::size_t _threadSlots = 0;
    std::size_t _widestEpoch = 0;
    std::vector<SpanRow> _mcritRows;
    std::vector<SpanRow> _coopRows;
    std::vector<std::uint32_t> _coopPhaseEnds;
};

} // namespace dvfs::pred

#endif // DVFS_PRED_TABLE_HH

#include "pred/table.hh"

#include <algorithm>

namespace dvfs::pred {

PredictionTable::PredictionTable(const RunView &run, unsigned parts)
    : _parts(parts), _baseFreq(run.baseFreq()), _totalTime(run.totalTime())
{
    if (parts & kEpochRows)
        buildEpochs(run.epochs(), 0, run.epochs().size());
    if (parts & kMCritRows)
        buildMCrit(run);
    if (parts & kCoopRows)
        buildCoop(run);
}

PredictionTable::PredictionTable(const EpochStore &epochs,
                                 std::size_t first, std::size_t last,
                                 Frequency base)
    : _parts(kEpochRows), _baseFreq(base)
{
    buildEpochs(epochs, first, last);
}

void
PredictionTable::buildEpochs(const EpochStore &epochs, std::size_t first,
                             std::size_t last)
{
    const EpochStore::Rows all = epochs.rows(first, last);
    const std::size_t rows = all.size();
    std::size_t max_tid = 0;
    for (auto it = all.begin(); it != all.end(); ++it)
        max_tid = std::max<std::size_t>(max_tid, it.tid());
    _epochRows.reserve(rows);
    _epochs.reserve(last - first);

    // Algorithm 1 keeps one delta per slot. ThreadIds are small and
    // dense in any recorded run, so they are the slots; only ids far
    // past the row count (a crafted trace) are renumbered densely, so
    // the delta array never outgrows the table.
    std::vector<os::ThreadId> ids;  // slot -> ThreadId when renumbered
    if (max_tid >= rows + 64) {
        for (auto it = all.begin(); it != all.end(); ++it)
            ids.push_back(it.tid());
        std::sort(ids.begin(), ids.end());
        ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    }
    _threadSlots = !ids.empty() ? ids.size() : rows > 0 ? max_tid + 1 : 0;
    auto slotOf = [&](os::ThreadId tid) -> std::uint32_t {
        if (ids.empty())
            return tid < _threadSlots ? tid : kNoSlot;
        auto it = std::lower_bound(ids.begin(), ids.end(), tid);
        return it != ids.end() && *it == tid
                   ? static_cast<std::uint32_t>(it - ids.begin())
                   : kNoSlot;
    };

    for (std::size_t i = first; i < last; ++i) {
        const Epoch ep = epochs[i];
        EpochEntry e;
        e.rowBegin = static_cast<std::uint32_t>(_epochRows.size());
        for (auto row = ep.active.begin(); row != ep.active.end(); ++row) {
            _epochRows.push_back(SpanRow::of(
                slotOf(row.tid()), row.field<&uarch::PerfCounters::busyTime>(),
                row));
        }
        e.rowEnd = static_cast<std::uint32_t>(_epochRows.size());
        if (e.empty()) {
            // Nothing was scheduled (e.g. everyone asleep around a
            // wake chain): the gap does not scale with frequency.
            e.idle = ep.duration();
        }
        // A stall thread that never ran has no delta anyone reads.
        if (ep.stallTid != os::kNoThread)
            e.stall = slotOf(ep.stallTid);
        _widestEpoch = std::max(_widestEpoch, ep.active.size());
        _epochs.push_back(e);
    }
}

void
PredictionTable::buildMCrit(const RunView &run)
{
    for (const ThreadSummary &t : run.threads()) {
        // A thread's "execution time" is its lifetime span: without
        // epoch decomposition, futex wait time is indistinguishable
        // from running time and lands in the scaling component — the
        // naive predictor's central flaw (Section II-C). Threads whose
        // CPU time is a negligible share of their lifetime (the
        // harness driver parked in join, GC workers parked between
        // collections) are pure coordinators; any practical
        // implementation skips them, or the max would degenerate to
        // ratio * total for every application.
        Tick span = t.exitTick - t.spawnTick;
        if (span == 0 ||
            static_cast<double>(t.totals.busyTime) <
                0.1 * static_cast<double>(span)) {
            continue;
        }
        _mcritRows.push_back(SpanRow::of(t.tid, span, t.totals));
    }
}

void
PredictionTable::buildCoop(const RunView &run)
{
    const EpochStore &epochs = run.epochs();
    const std::vector<ThreadSummary> &threads = run.threads();

    // Phase boundaries: 0, each GC mark, end of run.
    std::vector<Tick> cuts;
    cuts.push_back(0);
    for (const GcPhaseMark &m : run.gcMarks())
        cuts.push_back(m.tick);
    cuts.push_back(run.totalTime());

    // Per phase, aggregate per-thread counter deltas from the epochs
    // inside the phase; M+CRIT then applies within the phase.
    std::size_t ei = 0;
    const std::size_t nthreads = threads.size();
    std::vector<Tick> busy(nthreads);
    std::vector<SpanRow> acc(nthreads);

    for (std::size_t p = 0; p + 1 < cuts.size(); ++p) {
        const Tick a = cuts[p];
        const Tick b = cuts[p + 1];
        if (b <= a)
            continue;

        std::fill(busy.begin(), busy.end(), 0);
        std::fill(acc.begin(), acc.end(), SpanRow{});
        for (; ei < epochs.size(); ++ei) {
            const Epoch ep = epochs[ei];
            if (ep.end > b)
                break;
            if (ep.start >= a) {
                for (auto row = ep.active.begin(); row != ep.active.end();
                     ++row) {
                    // A thread without a summary has no span to scale.
                    const os::ThreadId tid = row.tid();
                    if (tid >= nthreads)
                        continue;
                    busy[tid] += row.field<&uarch::PerfCounters::busyTime>();
                    acc[tid].add(row);
                }
            }
        }

        // A participating thread's execution time is its overlap with
        // the phase (waits included — COOP fixes only the
        // application/collector alternation, not fine-grained waits).
        // Coordinator threads (negligible CPU share of the phase) are
        // skipped as in M+CRIT.
        const Tick phase_len = b - a;
        const std::size_t first = _coopRows.size();
        for (std::size_t t = 0; t < nthreads; ++t) {
            if (busy[t] == 0)
                continue;
            Tick span = std::min(threads[t].exitTick, b) -
                        std::max(threads[t].spawnTick, a);
            span = std::min(span, phase_len);
            if (static_cast<double>(busy[t]) <
                0.1 * static_cast<double>(span)) {
                continue;
            }
            SpanRow row = acc[t];
            row.tid = static_cast<std::uint32_t>(t);
            row.span = span;
            _coopRows.push_back(row);
        }
        // A phase nobody is eligible in predicts 0: no entry needed.
        if (_coopRows.size() > first)
            _coopPhaseEnds.push_back(
                static_cast<std::uint32_t>(_coopRows.size()));
    }
}

std::size_t
PredictionTable::bytes() const
{
    return sizeof(*this) + _epochs.capacity() * sizeof(EpochEntry) +
           (_epochRows.capacity() + _mcritRows.capacity() +
            _coopRows.capacity()) *
               sizeof(SpanRow) +
           _coopPhaseEnds.capacity() * sizeof(std::uint32_t);
}

} // namespace dvfs::pred

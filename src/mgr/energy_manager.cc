#include "mgr/energy_manager.hh"

#include <algorithm>
#include <cmath>

#include "sim/log.hh"

namespace dvfs::mgr {

EnergyManager::EnergyManager(os::System &sys, pred::RunRecorder &rec,
                             const power::VfTable &table,
                             const ManagerConfig &cfg)
    : _sys(sys), _rec(rec), _table(table), _cfg(cfg),
      _dep({pred::BaseEstimator::Crit, /*burst=*/true},
           /*across_epochs=*/true),
      _freqs(table.frequencies())
{
    if (_cfg.quantum == 0)
        fatal("energy manager quantum must be positive");
    if (_cfg.holdOff == 0)
        fatal("energy manager hold-off must be at least one interval");
    if (!std::isfinite(_cfg.tolerableSlowdown) ||
        _cfg.tolerableSlowdown < 0.0)
        fatal("tolerable slowdown must be finite and non-negative");
    if (_table.points().empty())
        fatal("energy manager needs a non-empty operating-point table");
}

void
EnergyManager::attach()
{
    // The application always starts at the highest frequency; the
    // first interval profiles it there (Section VI-A).
    _sys.setFrequency(_table.highest());
    _prevFreq = _table.highest();
    _sinceChange = _cfg.holdOff;  // allow a decision at the first quantum
    _sys.eventQueue().schedule(_sys.now() + _cfg.quantum,
                               [this] { onQuantum(); });
}

bool
EnergyManager::credibleSlowdown(double slowdown) const
{
    // Tiny negatives are rounding; anything clearly below zero claims
    // a lower frequency makes the program faster and means the
    // predictor is broken.
    return std::isfinite(slowdown) && slowdown >= -0.01 &&
           slowdown <= kMaxCredibleSlowdown;
}

double
EnergyManager::predictSlowdown(Tick predicted, Tick t_ref) const
{
    return static_cast<double>(predicted) / static_cast<double>(t_ref) -
           1.0;
}

void
EnergyManager::onQuantum()
{
    ++_quanta;
    const auto &epochs = _rec.epochs();
    const std::size_t first = _epochCursor;
    const std::size_t last = epochs.size();
    const Frequency f_cur = _sys.frequency();
    const Frequency f_max = _table.highest();

    ++_sinceChange;
    if (_sinceChange >= _cfg.holdOff * _backoff) {
        const bool used_epochs = last > first;
        const pred::EpochStore *quantum = &epochs;
        std::size_t q_first = first, q_last = last;
        if (!used_epochs) {
            // No synchronization activity this quantum: the per-thread
            // deltas of the busy threads, as the rows of one epoch.
            _wholeQuantum.clear();
            _wholeQuantum.open(0, 0, os::SyncEventKind::RunEnd,
                               os::kNoThread);
            for (std::size_t i = 0; i < _sys.numThreads(); ++i) {
                const auto tid = static_cast<os::ThreadId>(i);
                uarch::PerfCounters delta = _sys.thread(tid).counters;
                if (i < _lastCounters.size())
                    delta = delta - _lastCounters[i];
                if (delta.busyTime > 0)
                    _wholeQuantum.addRow(tid, delta);
            }
            quantum = &_wholeQuantum;
            q_first = 0;
            q_last = 1;
        }
        // The quantum ran at f_cur: its table's ratios are
        // f_cur / f_candidate.
        const pred::PredictionTable table(*quantum, q_first, q_last, f_cur);

        // Step 1: what would this quantum have taken at the highest
        // frequency?
        const Tick t_ref = _dep.predict(table, f_max);

        // Step 2: lowest candidate whose predicted slowdown stays
        // inside the bound. A prediction the manager cannot trust
        // aborts the search: degraded mode pins the machine at the
        // highest point, which always satisfies the bound.
        Frequency chosen = f_max;
        double chosen_slowdown = 0.0;
        bool fallback = false;
        if (t_ref > 0) {
            _dep.scanAscending(table, _freqs, [&](std::size_t i, Tick t_p) {
                const double slowdown = predictSlowdown(t_p, t_ref);
                if (!credibleSlowdown(slowdown)) {
                    fallback = true;
                    return true;
                }
                if (slowdown > _cfg.tolerableSlowdown)
                    return false;
                chosen = _freqs[i];
                chosen_slowdown = slowdown;
                return true;
            });
        }

        if (fallback)
            ++_fallbacks;
        if (chosen != f_cur) {
            // A->B->A flips mean the quantum signal straddles the
            // decision boundary: back off exponentially so the
            // regulator settles instead of thrashing.
            if (chosen == _prevFreq)
                _backoff = std::min(_backoff * 2, kMaxBackoff);
            else
                _backoff = 1;
            _prevFreq = f_cur;
            _sinceChange = 0;
        }
        _sys.setFrequency(chosen);
        _decisions.push_back(Decision{_sys.now(), chosen,
                                      chosen_slowdown, used_epochs,
                                      fallback});
    }

    // Roll the window.
    _epochCursor = last;
    _lastCounters.resize(_sys.numThreads());
    for (std::size_t i = 0; i < _sys.numThreads(); ++i)
        _lastCounters[i] = _sys.thread(static_cast<os::ThreadId>(i)).counters;

    _sys.eventQueue().schedule(_sys.now() + _cfg.quantum,
                               [this] { onQuantum(); });
}

} // namespace dvfs::mgr

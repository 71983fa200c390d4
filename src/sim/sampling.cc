#include "sim/sampling.hh"

#include "sim/log.hh"

namespace dvfs::sim {

SamplingController::SamplingController(EventQueue &eq,
                                       const SamplingConfig &cfg)
    : _eq(eq), _cfg(cfg)
{
    if (_cfg.detailWindow == 0)
        fatal("sampling: detailWindow must be positive (the analytical "
              "model is fitted from detail windows)");
}

void
SamplingController::start()
{
    if (_started)
        fatal("SamplingController::start called twice");
    _started = true;
    _phase = SamplePhase::Detail;
    _phaseStart = _eq.now();
    if (_cfg.gapWindow == 0) {
        // Degenerate schedule: detail forever, bit-identical to exact.
        _phaseEnd = kTickNever;
        return;
    }
    _phaseEnd = _eq.now() + _cfg.startupDetail;
    if (_cfg.startupDetail == 0)
        _phaseEnd = _eq.now() + _cfg.detailWindow;
    armFlip();
}

void
SamplingController::armFlip()
{
    // A boundary superseded by forceDetail() stays queued and fires
    // as a no-op: only the event armed under the current generation
    // closes the phase.
    _eq.schedule(_phaseEnd, [this, gen = _flipGen] {
        if (gen == _flipGen)
            flip();
    });
}

void
SamplingController::flip()
{
    const Tick now = _eq.now();
    DVFS_ASSERT(now == _phaseEnd, "sampling phase flip at wrong tick");
    if (_phase == SamplePhase::Detail) {
        _stats.detailWindows += 1;
        _stats.detailTicks += now - _phaseStart;
        _phase = SamplePhase::FastForward;
        _phaseStart = now;
        // The hook ages the model first so the drift probe consulted
        // by enterGap() compares the era just promoted against its
        // predecessor — the two freshest detail windows.
        if (_onFlip)
            _onFlip(_phase);
        enterGap(now);
    } else {
        _stats.ffWindows += 1;
        _stats.ffTicks += now - _phaseStart;
        enterDetail(now, _cfg.detailWindow);
        if (_onFlip)
            _onFlip(_phase);
    }
}

void
SamplingController::enterGap(Tick now)
{
    Tick gap = _cfg.gapWindow;
    if (_cfg.maxGapWindow > _cfg.gapWindow) {
        // Deterministic adaptation: the stretch factor is a pure
        // function of the drift sequence the run itself produced.
        // Unknown drift (cold model, nothing promoted) never
        // stretches.
        const std::uint32_t drift = _driftProbe ? _driftProbe() : ~0u;
        if (drift <= _cfg.driftThresholdPermille) {
            const std::uint64_t cap =
                1ull << (SampleStats::kGapStretchBuckets - 1);
            if (_stretch < cap &&
                _cfg.gapWindow * (_stretch * 2) <= _cfg.maxGapWindow)
                _stretch *= 2;
        } else {
            _stretch = 1;
        }
        gap = _cfg.gapWindow * _stretch;
    }
    int bucket = 0;
    for (std::uint64_t s = _stretch; s > 1; s >>= 1)
        bucket += 1;
    _stats.gapStretch[bucket] += 1;
    _phaseEnd = now + gap;
    armFlip();
}

void
SamplingController::enterDetail(Tick now, Tick len)
{
    _phase = SamplePhase::Detail;
    _phaseStart = now;
    _phaseEnd = now + len;
    armFlip();
}

void
SamplingController::forceDetail()
{
    if (!_started || _cfg.gapWindow == 0)
        return;
    const Tick now = _eq.now();
    _stretch = 1;
    if (_phase == SamplePhase::FastForward) {
        // Cut the gap short: account it as a (possibly zero-length)
        // completed gap and open a full detail window here. The
        // pending flip is retired by generation, so the schedule keeps
        // a single live boundary event at all times.
        _stats.ffWindows += 1;
        _stats.ffTicks += now - _phaseStart;
        _stats.forcedWindows += 1;
        ++_flipGen;
        enterDetail(now, _cfg.detailWindow);
        if (_onFlip)
            _onFlip(_phase);
        return;
    }
    // Already detailed: only act when the remaining window is shorter
    // than a full detailWindow (a forced window must fully observe
    // what follows the forcing event).
    const Tick end = now + _cfg.detailWindow;
    if (end <= _phaseEnd)
        return;
    _stats.forcedWindows += 1;
    ++_flipGen;
    _phaseEnd = end;
    armFlip();
}

SampleStats
SamplingController::finalStats() const
{
    SampleStats s = _stats;
    const Tick partial =
        _eq.now() > _phaseStart ? _eq.now() - _phaseStart : 0;
    if (_phase == SamplePhase::Detail)
        s.detailTicks += partial;
    else
        s.ffTicks += partial;
    return s;
}

} // namespace dvfs::sim

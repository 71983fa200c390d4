#include "rt/gc_worker.hh"

#include <algorithm>

#include "rt/runtime.hh"
#include "sim/log.hh"

namespace dvfs::rt {

GcWorkerProgram::GcWorkerProgram(Runtime &rt, std::uint32_t idx)
    : _rt(rt), _idx(idx),
      _addrs(kTraceChains, kTraceChainDepth)
{
}

os::Action
GcWorkerProgram::next(os::ThreadContext &ctx)
{
    switch (_state) {
      case State::Parked:
        // Woken by the runtime: a collection is starting.
        _state = State::GrabWork;
        return os::Action::makeFutexWait(_rt.gcWorkFutex());

      case State::GrabWork:
        _state = State::PopWork;
        return os::Action::makeMutexLock(_rt.gcWorkLock());

      case State::PopWork: {
        // Inside the work lock: take a unit if any work remains. A
        // fast-forwarding simulation grabs several units per lock
        // round trip — the traced and copied bytes are identical, the
        // per-unit lock churn is what gets amortised.
        std::uint64_t grab = kCopyUnitBytes;
        if (ctx.liteTiming)
            grab *= kFfCopyUnitBatch;
        std::uint64_t &rem = _rt.workerRemaining(_idx);
        if (rem > 0) {
            _unitBytes = std::min<std::uint64_t>(rem, grab);
            rem -= _unitBytes;
            _haveUnit = true;
            const auto units = static_cast<std::uint32_t>(
                (_unitBytes + kCopyUnitBytes - 1) / kCopyUnitBytes);
            _traceClustersDue =
                (kTraceClustersPerUnit + _rt.gcInflateExtraClusters()) *
                units;
        } else {
            _haveUnit = false;
        }
        _state = State::ReleaseWork;
        return os::Action::makeCompute(kWorkPopInstructions);
      }

      case State::ReleaseWork:
        _state = _haveUnit ? State::Trace : State::Terminate;
        return os::Action::makeMutexUnlock(_rt.gcWorkLock());

      case State::Trace: {
        // Pointer-chase the live objects of this unit: dependent
        // loads spread over the used nursery. One unit takes several
        // clusters (roughly one pointer hop per few tens of bytes).
        //
        // In fast-forward gaps the addresses are never walked — the
        // fast-path model charges by shape — so from the second
        // collection on the spec goes lite: same shape key, no
        // address generation. The first collection always
        // materialises; its clusters execute detailed while the mark
        // shape's era is cold (promotion happens only at window
        // flips, so nothing this collection observes can be charged
        // within it) and teach the model. Detail windows and exact
        // mode materialise too, so window-overlapping marks keep
        // refreshing the mark era.
        uarch::MissClusterSpec spec;
        if (ctx.liteTiming && _rt.collections() > 1) {
            spec.overlapInstructions = kTraceOverlapInstructions;
            spec.liteChains = kTraceChains;
            spec.liteChainDepth = kTraceChainDepth;
        } else {
            std::uint64_t span = std::max<std::uint64_t>(
                _rt.nurseryScanBytes(), 64);
            for (std::uint32_t c = 0; c < kTraceChains; ++c) {
                std::uint64_t *chain = _addrs.chain(c);
                for (std::uint32_t d = 0; d < kTraceChainDepth; ++d) {
                    std::uint64_t off = ctx.rng.nextBounded(span) & ~63ULL;
                    chain[d] = _rt.nurseryScanBase() + off;
                }
            }
            spec = _addrs.spec(kTraceOverlapInstructions);
        }
        if (++_traceClustersDone >= _traceClustersDue) {
            _traceClustersDone = 0;
            _state = State::Copy;
        }
        return os::Action::makeCluster(spec);
      }

      case State::Copy: {
        // Evacuate the unit into the mature space: a store burst.
        std::uint64_t target = _rt.copyTarget(_unitBytes);
        auto lines = static_cast<std::uint32_t>((_unitBytes + 63) / 64);
        _state = State::GrabWork;
        return os::Action::makeStoreBurst(target, lines);
      }

      case State::Terminate:
        _state = (_idx == 0) ? State::Finish : State::Parked;
        return os::Action::makeBarrierWait(_rt.gcBarrier());

      case State::Finish:
        // Worker 0 completes the collection: resets the nursery and
        // releases the mutators, then parks like everyone else.
        _rt.finishCollection();
        _state = State::GrabWork;
        return os::Action::makeFutexWait(_rt.gcWorkFutex());
    }
    panic("unreachable GC worker state");
}

} // namespace dvfs::rt

#include "wl/programs.hh"

#include <algorithm>
#include <cmath>

#include "sim/log.hh"

namespace dvfs::wl {

WorkerProgram::WorkerProgram(const SharedWorkload &shared,
                             std::uint32_t index)
    : _sh(shared), _index(index),
      _addrs(shared.params.chains, shared.params.chainDepth)
{
    const WorkloadParams &p = _sh.params;
    _items = p.workItems;
    // Worker 0 models pmd's oversized input file: same item count
    // (keeping barrier arrivals matched) but heavier items.
    const double workScale = (index == 0) ? p.stragglerFactor : 1.0;
    _halfItemInstr = static_cast<std::uint64_t>(
        std::llround(p.computeInstr * 0.5 * workScale));
    _lockHoldInstr = static_cast<std::uint64_t>(
        std::llround(p.lockHoldInstr * workScale));
    _itemAllocBytes = static_cast<std::uint64_t>(
        std::llround(p.allocBytesPerItem * workScale));
}

uarch::MissClusterSpec
WorkerProgram::makeCluster(os::ThreadContext &ctx)
{
    const WorkloadParams &p = _sh.params;
    std::uint32_t hot = 0, warm = 0, cold = 0;
    for (std::uint32_t c = 0; c < p.chains; ++c) {
        // A chain stays within one region: a pointer chase does not
        // hop between data structures of different temperature.
        double roll = ctx.rng.nextDouble();
        std::uint64_t base, span;
        if (roll < p.pHot) {
            base = kHotBase + ctx.tid * kHotStride;
            span = kHotBytes;
            ++hot;
        } else if (roll < p.pHot + p.pWarm) {
            base = kWarmBase;
            span = kWarmBytes;
            ++warm;
        } else {
            base = kColdBase;
            span = kColdBytes;
            ++cold;
        }
        if (ctx.liteTiming) {
            // No address materialisation — and no per-hop draws: the
            // fast path charges by shape, so only the per-chain
            // region roll above affects anything downstream. The
            // sampled trajectory is its own deterministic stream, not
            // a draw-for-draw replay of the exact one, and skipping
            // uniform draws leaves the workload statistics unchanged.
            continue;
        }
        std::uint64_t *chain = _addrs.chain(c);
        for (std::uint32_t d = 0; d < p.chainDepth; ++d)
            chain[d] = base + (ctx.rng.nextBounded(span) & ~63ULL);
    }
    // The region mix keys the fast-path model's shape table: clusters
    // with equal load counts but different temperatures must not share
    // a latency distribution. Set in both modes so lite charges match
    // full observations.
    const std::uint32_t shape = hot | warm << 8 | cold << 16;
    if (!ctx.liteTiming)
        return _addrs.spec(p.clusterOverlapInstr, shape);
    uarch::MissClusterSpec spec;
    spec.overlapInstructions = p.clusterOverlapInstr;
    spec.shapeHint = shape;
    spec.liteChains = p.chains;
    spec.liteChainDepth = p.chainDepth;
    return spec;
}

os::Action
WorkerProgram::next(os::ThreadContext &ctx)
{
    const WorkloadParams &p = _sh.params;

    switch (_state) {
      case State::ItemStart: {
        if (_item >= _items) {
            _state = State::Done;
            return os::Action::makeExit();
        }
        // Barrier phases: all workers synchronize every barrierEvery
        // items (same arrival count for everyone, straggler included).
        if (p.barrierEvery > 0 && _sh.barrier != os::kNoSync &&
            _item > 0 && _item % p.barrierEvery == 0 && !_barrierTaken) {
            _barrierTaken = true;
            return os::Action::makeBarrierWait(_sh.barrier);
        }
        _barrierTaken = false;

        _clustersLeft = p.clustersPerItem;
        _state = _clustersLeft > 0 ? State::Clusters : State::LockEnter;
        return os::Action::makeCompute(_halfItemInstr, p.l2LoadsPerItem,
                                       p.l3LoadsPerItem);
      }

      case State::Clusters: {
        if (_clustersLeft == 0) {
            _state = State::LockEnter;
            return next(ctx);
        }
        --_clustersLeft;
        return os::Action::makeCluster(makeCluster(ctx));
      }

      case State::LockEnter: {
        if (p.lockProb > 0.0 && p.numLocks > 0 &&
            ctx.rng.nextBool(p.lockProb)) {
            _lockId = static_cast<std::uint32_t>(
                ctx.rng.nextBounded(p.numLocks));
            _state = State::LockHold;
            return os::Action::makeMutexLock(_sh.locks[_lockId]);
        }
        _state = State::Alloc;
        return next(ctx);
    }

      case State::LockHold:
        _state = State::LockExit;
        return os::Action::makeCompute(_lockHoldInstr);

      case State::LockExit:
        _state = State::Alloc;
        return os::Action::makeMutexUnlock(_sh.locks[_lockId]);

      case State::Alloc: {
        if (_allocLeft == 0)
            _allocLeft = _itemAllocBytes;
        if (_allocLeft == 0 || p.allocChunkBytes == 0) {
            _allocLeft = 0;
            _state = State::ItemEnd;
            return next(ctx);
        }
        std::uint64_t chunk =
            std::min<std::uint64_t>(_allocLeft, p.allocChunkBytes);
        _allocLeft -= chunk;
        if (_allocLeft == 0)
            _state = State::ItemEnd;
        return os::Action::makeAlloc(chunk);
      }

      case State::ItemEnd: {
        ++_item;
        _state = State::ItemStart;
        return os::Action::makeCompute(_halfItemInstr, p.l2LoadsPerItem, 0);
      }

      case State::Done:
        return os::Action::makeExit();
    }
    panic("unreachable worker state");
}

MainProgram::MainProgram(const SharedWorkload &shared)
    : _sh(shared)
{
}

os::Action
MainProgram::next(os::ThreadContext &ctx)
{
    (void)ctx;
    const WorkloadParams &p = _sh.params;
    switch (_state) {
      case State::Setup:
        _state = State::Join;
        return os::Action::makeCompute(p.serialSetupInstr, 8, 2);

      case State::Join:
        if (_joinIndex < _sh.workers.size())
            return os::Action::makeJoin(_sh.workers[_joinIndex++]);
        _state = State::Teardown;
        return os::Action::makeCompute(p.serialTeardownInstr, 8, 2);

      case State::Teardown:
        _state = State::Done;
        return os::Action::makeExit();

      case State::Done:
        return os::Action::makeExit();
    }
    panic("unreachable main state");
}

} // namespace dvfs::wl

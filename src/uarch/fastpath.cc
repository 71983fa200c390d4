#include "uarch/fastpath.hh"

#include <algorithm>

#include "sim/log.hh"
#include "sim/profile.hh"

namespace dvfs::uarch {

FastPathModel::FastPathModel(std::uint32_t cores)
    : _cores(std::max<std::uint32_t>(1, cores))
{
    // One unlabeled point: fixed-frequency runs (and direct model
    // tests) never call setOperatingPoint and live here throughout.
    _points.emplace_back();
}

FastPathModel::ClusterShape &
FastPathModel::clusterShape(std::uint32_t loads, std::uint64_t overlap,
                            std::uint32_t hint)
{
    // Linear scan: a workload produces a handful of shapes (one per
    // region-mix of its cluster recipe, plus the GC tracer's), so a
    // short vector beats any hash map here.
    auto &clusters = _points[_cur].clusters;
    for (auto &s : clusters) {
        if (s.loads == loads && s.overlapInstructions == overlap &&
            s.shapeHint == hint) {
            return s;
        }
    }
    ClusterShape s;
    s.loads = loads;
    s.overlapInstructions = overlap;
    s.shapeHint = hint;
    s.lanes.resize(_cores + 1);
    clusters.push_back(std::move(s));
    return clusters.back();
}

FastPathModel::BurstShape &
FastPathModel::burstShape(std::uint32_t storesPerLine)
{
    auto &bursts = _points[_cur].bursts;
    for (auto &s : bursts) {
        if (s.storesPerLine == storesPerLine)
            return s;
    }
    BurstShape s;
    s.storesPerLine = storesPerLine;
    s.lanes.resize(_cores + 1);
    bursts.push_back(std::move(s));
    return bursts.back();
}

FastPathModel::PointState
FastPathModel::forkPoint(const PointState &src, std::uint32_t newMhz)
{
    PointState dst;
    dst.mhz = newMhz;
    const std::uint32_t oldMhz = src.mhz;
    dst.clusters.reserve(src.clusters.size());
    for (const auto &s : src.clusters) {
        ClusterShape c;
        c.loads = s.loads;
        c.overlapInstructions = s.overlapInstructions;
        c.shapeHint = s.shapeHint;
        c.lanes.resize(s.lanes.size());
        for (std::size_t i = 0; i < s.lanes.size(); ++i)
            c.lanes[i].fork(s.lanes[i], CfCompute, CfElapsed, oldMhz,
                            newMhz);
        dst.clusters.push_back(std::move(c));
    }
    dst.bursts.reserve(src.bursts.size());
    for (const auto &s : src.bursts) {
        BurstShape b;
        b.storesPerLine = s.storesPerLine;
        b.lanes.resize(s.lanes.size());
        for (std::size_t i = 0; i < s.lanes.size(); ++i)
            b.lanes[i].fork(s.lanes[i], BfCompute, BfElapsed, oldMhz,
                            newMhz);
        dst.bursts.push_back(std::move(b));
    }
    return dst;
}

void
FastPathModel::setOperatingPoint(std::uint32_t mhz)
{
    DVFS_ASSERT(mhz != 0, "operating point must name a real frequency");
    if (_points[_cur].mhz == mhz)
        return;
    for (std::size_t i = 0; i < _points.size(); ++i) {
        if (_points[i].mhz == mhz) {
            // Revisited frequency: resume its own fitted eras (the
            // forced detail window around the transition refreshes
            // them before the next gap charges).
            _cur = i;
            return;
        }
    }
    PointState &cur = _points[_cur];
    if (cur.mhz == 0 && cur.observations == 0) {
        // First label of the construction-time point: nothing fitted
        // yet, no fork to do.
        cur.mhz = mhz;
        return;
    }
    if (cur.mhz == 0) {
        // Observations landed before the point was ever labeled (a
        // directly driven model): the fitted ticks have no known
        // frequency, so a fork cannot rescale them. Start cold.
        _points.emplace_back();
        _points.back().mhz = mhz;
    } else {
        _points.push_back(forkPoint(cur, mhz));
    }
    _cur = _points.size() - 1;
}

void
FastPathModel::age()
{
    PointState &pt = _points[_cur];
    // Drift of the fitted terms: the worst aggregate-lane elapsed-mean
    // movement across the shapes about to promote over a live era.
    // Computed before promote() overwrites the old era; integer-only.
    std::uint32_t drift = kDriftUnknown;
    auto note = [&drift](std::uint64_t oldW, std::uint64_t oldSum,
                         std::uint64_t newW, std::uint64_t newSum) {
        if (oldW == 0 || newW == 0)
            return;
        const unsigned __int128 oldMean =
            (static_cast<unsigned __int128>(oldSum) << 20) / oldW;
        const unsigned __int128 newMean =
            (static_cast<unsigned __int128>(newSum) << 20) / newW;
        if (oldMean == 0)
            return;
        const unsigned __int128 diff =
            oldMean > newMean ? oldMean - newMean : newMean - oldMean;
        const unsigned __int128 permille = diff * 1000 / oldMean;
        const std::uint32_t p =
            permille > kDriftUnknown - 1
                ? kDriftUnknown - 1
                : static_cast<std::uint32_t>(permille);
        if (drift == kDriftUnknown || p > drift)
            drift = p;
    };
    for (auto &s : pt.clusters) {
        Lane<CfCount_> &agg = s.lanes[0];
        if (agg.winWeight >= kMinClusterObs && agg.eraWeight > 0)
            note(agg.eraWeight, agg.eraObs[CfElapsed], agg.winWeight,
                 agg.winObs[CfElapsed]);
        for (auto &l : s.lanes)
            l.promote(kMinClusterObs);
    }
    for (auto &s : pt.bursts) {
        Lane<BfCount_> &agg = s.lanes[0];
        if (agg.winWeight >= kMinBurstLines && agg.eraWeight > 0)
            note(agg.eraWeight, agg.eraObs[BfElapsed], agg.winWeight,
                 agg.winObs[BfElapsed]);
        for (auto &l : s.lanes)
            l.promote(kMinBurstLines);
    }
    _lastDrift = drift;
}

void
FastPathModel::observeCluster(const MissClusterSpec &spec,
                              std::uint32_t busyCores, Tick elapsed,
                              const PerfCounters &delta)
{
    DVFS_PROFILE_SCOPE(Fastpath);
    DVFS_ASSERT(!spec.lite(), "observing a lite cluster spec");
    ClusterShape &s =
        clusterShape(spec.loadCount(), spec.overlapInstructions,
                     spec.shapeHint);
    const std::uint32_t b = std::clamp<std::uint32_t>(busyCores, 1, _cores);
    for (std::uint32_t lane : {0u, b}) {
        Lane<CfCount_> &l = s.lanes[lane];
        l.winWeight += 1;
        l.winObs[CfElapsed] += elapsed;
        l.winObs[CfCompute] += delta.computeTime;
        l.winObs[CfTrueMem] += delta.trueMemTime;
        l.winObs[CfCrit] += delta.critNonscaling;
        l.winObs[CfLeading] += delta.leadingNonscaling;
        l.winObs[CfStall] += delta.stallNonscaling;
        l.winObs[CfL1] += delta.l1Hits;
        l.winObs[CfL2] += delta.l2Hits;
        l.winObs[CfL3] += delta.l3Hits;
        l.winObs[CfDram] += delta.dramLoads;
    }
    _points[_cur].observations += 1;
}

void
FastPathModel::observeBurst(const StoreBurstSpec &spec,
                            std::uint32_t busyCores, Tick elapsed,
                            const PerfCounters &delta)
{
    DVFS_PROFILE_SCOPE(Fastpath);
    if (spec.lines == 0)
        return;
    BurstShape &s = burstShape(spec.storesPerLine);
    const std::uint32_t b = std::clamp<std::uint32_t>(busyCores, 1, _cores);
    for (std::uint32_t lane : {0u, b}) {
        Lane<BfCount_> &l = s.lanes[lane];
        l.winWeight += spec.lines;
        l.winObs[BfElapsed] += elapsed;
        l.winObs[BfCompute] += delta.computeTime;
        l.winObs[BfTrueMem] += delta.trueMemTime;
        l.winObs[BfSqFull] += delta.sqFullTime;
    }
    _points[_cur].observations += spec.lines;
}

bool
FastPathModel::chargeCluster(const MissClusterSpec &spec,
                             std::uint32_t busyCores, Tick &elapsed,
                             PerfCounters &pc)
{
    DVFS_PROFILE_SCOPE(Fastpath);
    ClusterShape *s = nullptr;
    const std::uint32_t loads = spec.loadCount();
    for (auto &cand : _points[_cur].clusters) {
        if (cand.loads == loads &&
            cand.overlapInstructions == spec.overlapInstructions &&
            cand.shapeHint == spec.shapeHint) {
            s = &cand;
            break;
        }
    }
    if (!s)
        return false;

    // Prefer the occupancy-matched lane (contention-aware); fall back
    // to the shape aggregate while the bucket is cold.
    const std::uint32_t b = std::clamp<std::uint32_t>(busyCores, 1, _cores);
    Lane<CfCount_> *lane = &s->lanes[b];
    if (lane->eraWeight < kMinClusterObs)
        lane = &s->lanes[0];
    if (lane->eraWeight < kMinClusterObs)
        return false;

    lane->charged += 1;
    const std::uint64_t w = lane->charged;
    elapsed = emitShare(*lane, CfElapsed, w);
    pc.busyTime += elapsed;
    pc.instructions += spec.overlapInstructions;
    pc.missClusters += 1;
    pc.computeTime += emitShare(*lane, CfCompute, w);
    pc.trueMemTime += emitShare(*lane, CfTrueMem, w);
    pc.critNonscaling += emitShare(*lane, CfCrit, w);
    pc.leadingNonscaling += emitShare(*lane, CfLeading, w);
    pc.stallNonscaling += emitShare(*lane, CfStall, w);
    pc.l1Hits += emitShare(*lane, CfL1, w);
    pc.l2Hits += emitShare(*lane, CfL2, w);
    pc.l3Hits += emitShare(*lane, CfL3, w);
    pc.dramLoads += emitShare(*lane, CfDram, w);
    return true;
}

bool
FastPathModel::chargeBurst(const StoreBurstSpec &spec,
                           std::uint32_t busyCores, Tick &elapsed,
                           PerfCounters &pc)
{
    DVFS_PROFILE_SCOPE(Fastpath);
    if (spec.lines == 0) {
        elapsed = 0;
        return true;
    }
    BurstShape *s = nullptr;
    for (auto &cand : _points[_cur].bursts) {
        if (cand.storesPerLine == spec.storesPerLine) {
            s = &cand;
            break;
        }
    }
    if (!s)
        return false;

    const std::uint32_t b = std::clamp<std::uint32_t>(busyCores, 1, _cores);
    Lane<BfCount_> *lane = &s->lanes[b];
    if (lane->eraWeight < kMinBurstLines)
        lane = &s->lanes[0];
    if (lane->eraWeight < kMinBurstLines)
        return false;

    lane->charged += spec.lines;
    const std::uint64_t w = lane->charged;
    elapsed = emitShare(*lane, BfElapsed, w);
    const std::uint32_t spl =
        std::max<std::uint32_t>(1, spec.storesPerLine);
    pc.busyTime += elapsed;
    pc.instructions += static_cast<std::uint64_t>(spec.lines) * spl;
    pc.storeBursts += 1;
    pc.storeLines += spec.lines;
    pc.computeTime += emitShare(*lane, BfCompute, w);
    pc.trueMemTime += emitShare(*lane, BfTrueMem, w);
    pc.sqFullTime += emitShare(*lane, BfSqFull, w);
    return true;
}

} // namespace dvfs::uarch

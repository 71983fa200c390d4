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

template <class Kind>
FastPathModel::Shape<Kind> *
FastPathModel::findShape(const typename Kind::Key &key)
{
    // Linear scan: a workload produces a handful of shapes (one per
    // region-mix of its cluster recipe, plus the GC tracer's), so a
    // short vector beats any hash map here.
    for (auto &s : std::get<Shapes<Kind>>(_points[_cur].shapes)) {
        if (s.key == key)
            return &s;
    }
    return nullptr;
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
    // Observations that landed before the point was ever labeled (a
    // directly driven model) have no known frequency, so a fork cannot
    // rescale them: the new point then starts cold.
    PointState next;
    if (cur.mhz != 0) {
        next = cur;
        next.observations = 0;
        forEachKind(next, [&](auto &shapes) {
            for (auto &s : shapes) {
                for (auto &l : s.lanes)
                    l.fork(cur.mhz, mhz);
            }
        });
    }
    next.mhz = mhz;
    _points.push_back(std::move(next));
    _cur = _points.size() - 1;
}

void
FastPathModel::age()
{
    // Drift of the fitted terms: the worst aggregate-lane elapsed-mean
    // movement across the shapes about to promote over a live era.
    // Computed before promote() overwrites the old era; integer-only.
    std::uint32_t drift = kDriftUnknown;
    forEachKind(_points[_cur], [&drift](auto &shapes) {
        for (auto &s : shapes) {
            const auto &agg = s.lanes[0];
            if (agg.winWeight >= s.kMinWeight && agg.eraWeight > 0) {
                const std::uint32_t p = agg.driftPermille();
                if (p != kDriftUnknown &&
                    (drift == kDriftUnknown || p > drift))
                    drift = p;
            }
            for (auto &l : s.lanes)
                l.promote(s.kMinWeight);
        }
    });
    _lastDrift = drift;
}

template <class Kind>
void
FastPathModel::observe(const typename Kind::Spec &spec,
                       std::uint32_t busyCores, Tick elapsed,
                       const PerfCounters &delta)
{
    DVFS_PROFILE_SCOPE(Fastpath);
    const std::uint64_t weight = Kind::weight(spec);
    if (weight == 0)
        return;
    const typename Kind::Key key = Kind::key(spec);
    Shape<Kind> *s = findShape<Kind>(key);
    if (!s) {
        auto &shapes = std::get<Shapes<Kind>>(_points[_cur].shapes);
        shapes.push_back({key, {}});
        s = &shapes.back();
        s->lanes.resize(_cores + 1);
    }
    const std::uint32_t b = std::clamp<std::uint32_t>(busyCores, 1, _cores);
    for (std::uint32_t lane : {0u, b}) {
        auto &l = s->lanes[lane];
        l.winWeight += weight;
        l.winObs[0] += elapsed;
        for (std::size_t i = 1; i < std::size(Kind::kFields); ++i)
            l.winObs[i] += delta.*Kind::kFields[i];
    }
    _points[_cur].observations += weight;
}

template <class Kind>
bool
FastPathModel::charge(const typename Kind::Spec &spec,
                      std::uint32_t busyCores, Tick &elapsed,
                      PerfCounters &pc)
{
    DVFS_PROFILE_SCOPE(Fastpath);
    const std::uint64_t weight = Kind::weight(spec);
    if (weight == 0) {
        elapsed = 0;
        return true;
    }
    Shape<Kind> *s = findShape<Kind>(Kind::key(spec));
    if (!s)
        return false;

    // Prefer the occupancy-matched lane (contention-aware); fall back
    // to the shape aggregate while the bucket is cold.
    const std::uint32_t b = std::clamp<std::uint32_t>(busyCores, 1, _cores);
    auto *lane = &s->lanes[b];
    if (lane->eraWeight < Kind::kMinWeight)
        lane = &s->lanes[0];
    if (lane->eraWeight < Kind::kMinWeight)
        return false;

    lane->charged += weight;
    const std::uint64_t w = lane->charged;
    elapsed = lane->emit(0, w);
    pc.*Kind::kFields[0] += elapsed;
    for (std::size_t i = 1; i < std::size(Kind::kFields); ++i)
        pc.*Kind::kFields[i] += lane->emit(i, w);
    Kind::addCounts(spec, pc);
    return true;
}

void
FastPathModel::observeCluster(const MissClusterSpec &spec,
                              std::uint32_t busyCores, Tick elapsed,
                              const PerfCounters &delta)
{
    DVFS_ASSERT(!spec.lite(), "observing a lite cluster spec");
    observe<ClusterKind>(spec, busyCores, elapsed, delta);
}

void
FastPathModel::observeBurst(const StoreBurstSpec &spec,
                            std::uint32_t busyCores, Tick elapsed,
                            const PerfCounters &delta)
{
    observe<BurstKind>(spec, busyCores, elapsed, delta);
}

bool
FastPathModel::chargeCluster(const MissClusterSpec &spec,
                             std::uint32_t busyCores, Tick &elapsed,
                             PerfCounters &pc)
{
    return charge<ClusterKind>(spec, busyCores, elapsed, pc);
}

bool
FastPathModel::chargeBurst(const StoreBurstSpec &spec,
                           std::uint32_t busyCores, Tick &elapsed,
                           PerfCounters &pc)
{
    return charge<BurstKind>(spec, busyCores, elapsed, pc);
}

} // namespace dvfs::uarch

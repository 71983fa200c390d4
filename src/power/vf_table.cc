#include "power/vf_table.hh"

#include "sim/log.hh"

namespace dvfs::power {

VfTable::VfTable(std::vector<OperatingPoint> points)
    : _points(std::move(points))
{
    if (_points.empty())
        fatal("a V/f table needs at least one operating point");
    for (std::size_t i = 1; i < _points.size(); ++i) {
        if (_points[i].freq <= _points[i - 1].freq)
            fatal("V/f table points must ascend in frequency");
        if (_points[i].volts < _points[i - 1].volts)
            fatal("V/f table voltage must be non-decreasing");
    }
}

VfTable
VfTable::haswell(std::uint32_t step_mhz)
{
    if (step_mhz == 0)
        fatal("V/f table step must be positive");
    std::vector<OperatingPoint> pts;
    // 64-bit so a step near 2^32 (a dvfsd client's OptimalVf stepMHz)
    // cannot wrap the frequency back below 4 GHz.
    for (std::uint64_t mhz = 1000; mhz <= 4000; mhz += step_mhz) {
        double ghz = static_cast<double>(mhz) / 1000.0;
        pts.push_back(OperatingPoint{
            Frequency::mhz(static_cast<std::uint32_t>(mhz)),
            0.65 + 0.15 * ghz});
    }
    if (pts.back().freq.toMHz() != 4000) {
        pts.push_back(OperatingPoint{Frequency::mhz(4000),
                                     0.65 + 0.15 * 4.0});
    }
    return VfTable(std::move(pts));
}

double
VfTable::voltageAt(Frequency f) const
{
    if (f <= _points.front().freq)
        return _points.front().volts;
    if (f >= _points.back().freq)
        return _points.back().volts;
    for (std::size_t i = 1; i < _points.size(); ++i) {
        if (f <= _points[i].freq) {
            const auto &lo = _points[i - 1];
            const auto &hi = _points[i];
            double t = (f.toGHz() - lo.freq.toGHz()) /
                       (hi.freq.toGHz() - lo.freq.toGHz());
            return lo.volts + t * (hi.volts - lo.volts);
        }
    }
    return _points.back().volts;
}

OperatingPoint
VfTable::ceilPoint(Frequency f) const
{
    for (const auto &p : _points) {
        if (p.freq >= f)
            return p;
    }
    return _points.back();
}

} // namespace dvfs::power

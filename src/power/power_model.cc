#include "power/power_model.hh"

#include <algorithm>

#include "sim/log.hh"

namespace dvfs::power {

double
PowerModel::coreDynamicWatts(std::uint32_t cores, Frequency f, double volts,
                             double utilization)
{
    utilization = std::clamp(utilization, 0.0, 1.0);
    double activity = kIdleActivity + (1.0 - kIdleActivity) * utilization;
    return cores * kCoreCeffFarad * volts * volts * f.toHz() * activity;
}

double
PowerModel::coreStaticWatts(std::uint32_t cores, double volts)
{
    return cores * kLeakWattsPerVolt * volts;
}

double
PowerModel::dramAccessJoules(std::uint64_t accesses)
{
    return static_cast<double>(accesses) * kDramEnergyPerAccess;
}

double
PowerModel::totalWatts(std::uint32_t cores, Frequency f, double volts,
                       double utilization)
{
    return coreDynamicWatts(cores, f, volts, utilization) +
           coreStaticWatts(cores, volts) + kUncoreWatts +
           kDramBackgroundWatts;
}

EnergyMeter::EnergyMeter(os::System &sys, const VfTable &table)
    : _sys(sys), _table(table)
{
}

void
EnergyMeter::attach()
{
    if (_attached)
        fatal("EnergyMeter::attach called twice");
    _attached = true;
    _segStart = _sys.now();
    _segFreq = _sys.frequency();
    _sys.addFrequencyObserver([this](Frequency next, Tick when) {
        closeSegment(when);
        _segFreq = next;
    });
}

void
EnergyMeter::closeSegment(Tick now)
{
    if (now <= _segStart)
        return;

    const double dt = ticksToSeconds(now - _segStart);
    const auto cores = _sys.config().cores;

    // Utilization: busy core-time accumulated this segment over the
    // available core-time.
    uarch::PerfCounters total = _sys.totalCounters();
    Tick busy_sum = total.busyTime;
    Tick busy_delta = busy_sum - _lastBusySum;
    _lastBusySum = busy_sum;
    double util = static_cast<double>(busy_delta) /
                  (static_cast<double>(now - _segStart) * cores);
    util = std::clamp(util, 0.0, 1.0);

    std::uint64_t dram_accesses = _sys.dram().reads() + _sys.dram().writes();
    std::uint64_t dram_delta = dram_accesses - _lastDramAccesses;
    _lastDramAccesses = dram_accesses;

    const double volts = _table.voltageAt(_segFreq);
    _energy.coreDynamic +=
        PowerModel::coreDynamicWatts(cores, _segFreq, volts, util) * dt;
    _energy.coreStatic += PowerModel::coreStaticWatts(cores, volts) * dt;
    _energy.uncore += PowerModel::kUncoreWatts * dt;
    _energy.dram += PowerModel::kDramBackgroundWatts * dt +
                    PowerModel::dramAccessJoules(dram_delta);

    _segStart = now;
}

void
EnergyMeter::finish()
{
    if (_finished)
        return;
    _finished = true;
    closeSegment(_sys.now());
}

} // namespace dvfs::power

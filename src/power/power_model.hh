/**
 * @file
 * McPAT-style power model and run-time energy integration.
 *
 * Power is decomposed as in the paper's McPAT setup (22 nm node,
 * static + dynamic, Section IV):
 *
 *  - per-core dynamic power:  Ceff * V^2 * f * activity, where
 *    activity follows core utilization (clock gating leaves a small
 *    residual on idle cores);
 *  - per-core static power:   leakage, proportional to V;
 *  - uncore power:            fixed-frequency L3/interconnect;
 *  - DRAM power:              background + per-access energy.
 *
 * The EnergyMeter integrates this over the run by closing an
 * accounting segment at every DVFS transition (and at the end of the
 * run), using the machine's counters to recover per-segment
 * utilization and memory traffic. Absolute watts are calibrated to be
 * plausible for a quad-core Haswell; the evaluation consumes only
 * relative energies. The coefficients are PowerModel constants, not
 * settings: the paper evaluates one chip.
 */

#ifndef DVFS_POWER_POWER_MODEL_HH
#define DVFS_POWER_POWER_MODEL_HH

#include <cstdint>

#include "os/system.hh"
#include "power/vf_table.hh"
#include "sim/time.hh"

namespace dvfs::power {

/**
 * Stateless power formulas over the model's constant coefficients.
 */
class PowerModel
{
  public:
    /** Effective switched capacitance per core (F). */
    static constexpr double kCoreCeffFarad = 1.25e-9;
    /** Residual activity of a clock-gated idle core. */
    static constexpr double kIdleActivity = 0.10;
    /** Core leakage coefficient (W per volt, per core). */
    static constexpr double kLeakWattsPerVolt = 1.6;
    /** Fixed uncore power (shared L3 + interconnect at 1.5 GHz), W. */
    static constexpr double kUncoreWatts = 8.0;
    /** DRAM background power, W. */
    static constexpr double kDramBackgroundWatts = 2.0;
    /** DRAM energy per line access (J). */
    static constexpr double kDramEnergyPerAccess = 20e-9;

    /**
     * Dynamic power of @p cores cores at (f, V) with the given mean
     * utilization in [0, 1].
     */
    static double coreDynamicWatts(std::uint32_t cores, Frequency f,
                                   double volts, double utilization);

    /** Static (leakage) power of @p cores cores at V. */
    static double coreStaticWatts(std::uint32_t cores, double volts);

    /** DRAM access energy for @p accesses line transfers. */
    static double dramAccessJoules(std::uint64_t accesses);

    /**
     * Total chip+memory power at an operating point, for reports and
     * the static oracle.
     */
    static double totalWatts(std::uint32_t cores, Frequency f, double volts,
                             double utilization);
};

/** Energy breakdown of a run (J). */
struct EnergyBreakdown {
    double coreDynamic = 0.0;
    double coreStatic = 0.0;
    double uncore = 0.0;
    double dram = 0.0;

    double
    total() const
    {
        return coreDynamic + coreStatic + uncore + dram;
    }
};

/**
 * Integrates energy over a live run.
 *
 * Attach before System::run(); call finish() after it returns.
 */
class EnergyMeter
{
  public:
    EnergyMeter(os::System &sys, const VfTable &table);

    /** Register the DVFS observer with the system. Call once. */
    void attach();

    /** Close the final segment (at the end-of-run tick). */
    void finish();

    /** Accumulated energy (valid after finish()). */
    const EnergyBreakdown &energy() const { return _energy; }

  private:
    /** Close the accounting segment [_segStart, now). */
    void closeSegment(Tick now);

    os::System &_sys;
    const VfTable &_table;

    Tick _segStart = 0;
    Frequency _segFreq;
    Tick _lastBusySum = 0;
    std::uint64_t _lastDramAccesses = 0;
    EnergyBreakdown _energy;
    bool _attached = false;
    bool _finished = false;
};

} // namespace dvfs::power

#endif // DVFS_POWER_POWER_MODEL_HH

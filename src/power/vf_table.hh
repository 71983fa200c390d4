/**
 * @file
 * Voltage/frequency operating points.
 *
 * Patterned on the Intel i7-4770K (22 nm Haswell) settings the paper
 * uses (Table II): core frequency from 1.0 to 4.0 GHz in 125 MHz
 * steps, with supply voltage rising roughly linearly across that
 * range. Absolute volts are a calibrated approximation; the energy
 * results consume only the *relative* V(f) shape.
 */

#ifndef DVFS_POWER_VF_TABLE_HH
#define DVFS_POWER_VF_TABLE_HH

#include <vector>

#include "sim/time.hh"

namespace dvfs::power {

/** One DVFS operating point. */
struct OperatingPoint {
    Frequency freq;
    double volts;
};

/**
 * An ordered table of operating points (ascending frequency).
 */
class VfTable
{
  public:
    /** Build from explicit points (must be ascending in frequency). */
    explicit VfTable(std::vector<OperatingPoint> points);

    /**
     * The default Haswell-like table: 1.0-4.0 GHz, @p step_mhz steps,
     * V(f) = 0.65 + 0.15 * f_GHz.
     */
    static VfTable haswell(std::uint32_t step_mhz = 125);

    const std::vector<OperatingPoint> &points() const { return _points; }

    /** The points' frequencies, ascending. */
    std::vector<Frequency> frequencies() const;

    Frequency lowest() const { return _points.front().freq; }
    Frequency highest() const { return _points.back().freq; }

    /**
     * Supply voltage at @p f (linear interpolation; clamped at the
     * table edges).
     */
    double voltageAt(Frequency f) const;

    /** Nearest table point with frequency >= @p f (clamped). */
    OperatingPoint ceilPoint(Frequency f) const;

    /** Number of points. */
    std::size_t size() const { return _points.size(); }

  private:
    std::vector<OperatingPoint> _points;
};

} // namespace dvfs::power

#endif // DVFS_POWER_VF_TABLE_HH

/**
 * @file
 * Lightweight statistics primitives.
 *
 * Components own Counter members for reporting and tests. Stats never
 * affect simulated behaviour.
 */

#ifndef DVFS_SIM_STATS_HH
#define DVFS_SIM_STATS_HH

#include <cstdint>

namespace dvfs::sim {

/** A monotonically increasing event counter. */
class Counter
{
  public:
    Counter() : _value(0) {}

    void inc(std::uint64_t by = 1) { _value += by; }
    std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }

  private:
    std::uint64_t _value;
};

} // namespace dvfs::sim

#endif // DVFS_SIM_STATS_HH

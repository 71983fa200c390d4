/**
 * @file
 * Values pinned in the benchmark: per-cell fingerprints and simulated
 * times, trace payload digests, and whole-grid digests.
 *
 * The benchmark checks every simulated cell against these, so a run
 * whose simulated results drifted fails and names the cell. They are
 * regenerated only on purpose (`python3 perfbench/run.py --pin`), when
 * a change to simulated results is intended.
 *
 * File format, one entry per line ('#' starts a comment):
 *
 *     <key> <value hex> <simulated ticks>
 *
 * where key is "cell/<mode>/<workload>/<MHz>/<seed>",
 * "trace/<workload>/<MHz>/<seed>" or "grid/<name>"; ticks are 0 where
 * no time applies.
 */

#ifndef PERFBENCH_PINS_HH
#define PERFBENCH_PINS_HH

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

struct Pin {
    std::uint64_t value = 0;  ///< fingerprint or digest
    std::uint64_t ticks = 0;  ///< simulated total time, when a cell
};

class Pins
{
  public:
    /** Parse @p path; throws std::runtime_error naming the bad line. */
    static Pins load(const std::string &path);

    /** Write every entry, sorted by key, to @p path. */
    void save(const std::string &path) const;

    const Pin *find(const std::string &key) const;
    void set(const std::string &key, Pin pin) { _pins[key] = pin; }
    std::size_t size() const { return _pins.size(); }

  private:
    std::map<std::string, Pin> _pins;
};

std::string cellKey(const std::string &mode, const std::string &workload,
                    std::uint32_t mhz, std::uint64_t seed);
std::string traceKey(const std::string &workload, std::uint32_t mhz,
                     std::uint64_t seed);
std::string gridKey(const std::string &name);

/** "0x" + 16 hex digits. */
std::string hex64(std::uint64_t v);

} // namespace perfbench

#endif // PERFBENCH_PINS_HH

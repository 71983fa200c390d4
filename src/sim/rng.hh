/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * Every stochastic choice in the simulator draws from an Rng seeded
 * from the workload configuration, never from wall-clock entropy, so
 * that ground-truth runs at different frequencies see *identical*
 * instruction streams, addresses, and allocation sequences — the same
 * property the paper gets from replay compilation and fixed inputs.
 */

#ifndef DVFS_SIM_RNG_HH
#define DVFS_SIM_RNG_HH

#include <cstdint>

namespace dvfs::sim {

/**
 * A small, fast, high-quality PRNG (xoshiro256** with splitmix64
 * seeding). Not cryptographic; statistical quality is ample for
 * workload synthesis.
 */
class Rng
{
  public:
    /** Seed deterministically from a 64-bit value. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound) using rejection-free scaling. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    nextRange(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + nextBounded(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw with probability @p p of returning true. */
    bool nextBool(double p);

    /**
     * Geometric-ish draw: exponentially distributed double with the
     * given mean, clamped away from zero. Used for inter-arrival
     * spacing of misses, lock attempts, etc.
     */
    double nextExp(double mean);

    /**
     * Split off an independent child generator. Children derived with
     * distinct salts produce decorrelated streams; used to give each
     * simulated thread its own stream regardless of interleaving.
     */
    Rng split(std::uint64_t salt);

    /** Same state: both generators draw the same sequence from here. */
    bool operator==(const Rng &) const = default;

  private:
    std::uint64_t _s[4];
};

} // namespace dvfs::sim

#endif // DVFS_SIM_RNG_HH

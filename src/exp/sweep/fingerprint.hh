/**
 * @file
 * FNV-1a fingerprints of run outputs — the sweep's replay witness.
 *
 * A fingerprint digests everything a sweep cell observably produced
 * (total time, epoch decomposition, per-thread counters, energy, GC
 * activity) into one 64-bit value with sim::Fnv1a, the same hasher
 * fault::FaultPlan uses for its trace. Two runs with equal
 * fingerprints produced bit-identical records, so the golden-trace
 * tests can assert that a parallel sweep is indistinguishable from the
 * serial one with a single comparison per cell.
 */

#ifndef DVFS_EXP_SWEEP_FINGERPRINT_HH
#define DVFS_EXP_SWEEP_FINGERPRINT_HH

#include <cstdint>
#include <vector>

#include "sim/fnv.hh"
#include "sim/profile.hh"

namespace dvfs::exp {
struct FixedRunOutput;
struct ManagedRunOutput;
}

namespace dvfs::exp::sweep {

/** The tree's one FNV-1a hasher, under the name sweep code spells. */
using sim::Fnv1a;

/** Digest of one fixed-frequency ground-truth run. */
std::uint64_t fingerprintRun(const FixedRunOutput &out);

/** Digest of one energy-manager-governed run. */
std::uint64_t fingerprintRun(const ManagedRunOutput &out);

/** Digest of a whole grid of either run type: cell fingerprints in
 *  flattened order. */
template <typename RunOutput>
std::uint64_t
gridDigest(const std::vector<RunOutput> &cells)
{
    DVFS_PROFILE_SCOPE(Digest);
    Fnv1a h;
    for (const RunOutput &cell : cells)
        h.mix(fingerprintRun(cell));
    return h.digest();
}

} // namespace dvfs::exp::sweep

#endif // DVFS_EXP_SWEEP_FINGERPRINT_HH

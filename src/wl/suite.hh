/**
 * @file
 * The DaCapo-like benchmark suite (Table I).
 *
 * Seven multithreaded benchmarks calibrated against Table I of the
 * paper: relative running time at 1 GHz, GC-time share, thread count,
 * and memory/compute character. The knobs are documented per
 * benchmark; see DESIGN.md for the substitution rationale.
 */

#ifndef DVFS_WL_SUITE_HH
#define DVFS_WL_SUITE_HH

#include <vector>

#include "wl/params.hh"

namespace dvfs::wl {

/** All seven benchmarks, in Table I order. */
std::vector<WorkloadParams> dacapoSuite();

/** Look up one benchmark by name; fatal() if unknown. */
WorkloadParams benchmarkByName(const std::string &name);

/**
 * A small, fully parameterised synthetic workload for examples and
 * tests: @p item-level knobs preconfigured for a short run.
 */
WorkloadParams syntheticSmall(std::uint32_t app_threads = 4,
                              std::uint64_t work_items = 200);

} // namespace dvfs::wl

#endif // DVFS_WL_SUITE_HH

/**
 * @file
 * Umbrella header: the supported public surface of the DEP+BURST
 * library in one include.
 *
 * Applications (and everything under examples/) should include only
 * this header. It re-exports the *stable facade* — the API tier that
 * changes only with a deprecation cycle (DESIGN.md section 10.5):
 *
 *  - workload description and construction (wl::WorkloadParams,
 *    wl::dacapoSuite, wl::syntheticSmall, wl::buildBenchmark)
 *  - canonical run harnesses (exp::runFixed / exp::runManaged /
 *    exp::RunOptions) and the sweep engine with trace-backed grids
 *  - the observation surface (pred::RunView) with both backends,
 *    prediction tables, predictors and the PredictorRegistry
 *  - trace record/replay I/O (trace::writeTraceFile,
 *    trace::readTraceFile, trace::ReplayEngine)
 *  - report helpers (exp::Table) and criticality analysis
 *
 * Everything not reachable from here (os::, uarch::, rt::, sim::
 * internals) is the *internal* tier: usable, but its layout may change
 * in any PR without notice.
 */

#ifndef DVFS_DVFS_HH
#define DVFS_DVFS_HH

// Workloads.
#include "wl/builder.hh"
#include "wl/params.hh"
#include "wl/suite.hh"

// Run harnesses and sweeps.
#include "exp/experiment.hh"
#include "exp/sweep/fingerprint.hh"
#include "exp/sweep/sweep.hh"
#include "exp/sweep/trace_cache.hh"
#include "exp/table.hh"

// Prediction: observation surface, predictors, registry, analysis.
#include "pred/criticality.hh"
#include "pred/predictors.hh"
#include "pred/registry.hh"
#include "pred/run_view.hh"
#include "pred/table.hh"

// Trace record/replay.
#include "trace/format.hh"
#include "trace/reader.hh"
#include "trace/replay.hh"
#include "trace/writer.hh"

// Diagnostics used by caller code (fatal/warn/inform).
#include "sim/log.hh"

#endif // DVFS_DVFS_HH

/**
 * @file
 * Experiment harness: canonical ways to run a benchmark and collect
 * everything the paper's evaluation needs.
 */

#ifndef DVFS_EXP_EXPERIMENT_HH
#define DVFS_EXP_EXPERIMENT_HH

#include <optional>
#include <string>
#include <vector>

#include "fault/auditor.hh"
#include "fault/fault_plan.hh"
#include "mgr/energy_manager.hh"
#include "power/power_model.hh"
#include "power/vf_table.hh"
#include "pred/record.hh"
#include "sim/sampling.hh"
#include "wl/builder.hh"
#include "wl/suite.hh"

namespace dvfs::exp {

/** Simulation fidelity of a run. */
enum class SimMode {
    Exact,    ///< cycle-accurate throughout (the golden oracle)
    Sampled,  ///< detailed windows + analytically fast-forwarded gaps
};

/** Printable name of a simulation mode ("exact"/"sampled"). */
const char *simModeName(SimMode m);

/**
 * Parse a mode name, case-insensitively; fatals on anything but
 * "exact"/"sampled", naming @p flag (the CLI flag the value came
 * from) in the message.
 */
SimMode parseSimMode(const std::string &name,
                     const std::string &flag = "--mode");

/**
 * What an audited run observed. Present on a run's output exactly when
 * RunOptions::faults was set; never part of its fingerprint.
 */
struct AuditReport {
    bool finished = false;
    bool aborted = false;     ///< the watchdog stopped the run
    std::string abortReason;

    std::vector<fault::FaultEvent> faultTrace;
    std::uint64_t faultFingerprint = 0;
    std::uint64_t faultsInjected = 0;

    std::vector<fault::Violation> violations;
    fault::WatchdogReport watchdog;
    std::uint64_t audits = 0;
};

/** Everything collected from one fixed-frequency ground-truth run. */
struct FixedRunOutput {
    Frequency freq;
    Tick totalTime = 0;
    pred::RunRecord record;
    power::EnergyBreakdown energy;
    std::uint32_t collections = 0;
    Tick gcTime = 0;
    std::uint64_t allocatedBytes = 0;
    uarch::PerfCounters totals;
    std::uint64_t events = 0;

    /** Mode the run executed under (new fields: fingerprint-neutral). */
    SimMode mode = SimMode::Exact;

    /** Sampling provenance; all-zero for exact runs. */
    sim::SampleStats sampling;

    /** Fault and invariant report of an audited run. */
    std::optional<AuditReport> audit;
};

/**
 * Options shared by every canonical run harness (fixed, managed).
 *
 * One options struct instead of one per harness: the fields are the
 * same everywhere, and the sweep engine overrides only the seed per
 * cell.
 */
struct RunOptions {
    std::uint64_t seed = 42;     ///< machine seed (workload determinism)

    /**
     * Fidelity. Sampled applies to fixed and managed runs alike:
     * runManaged forks the fast-path model per operating point and
     * forces detail windows around DVFS transitions and GC
     * boundaries (DESIGN.md section 11.7).
     */
    SimMode mode = SimMode::Exact;

    /** Window placement when mode == Sampled; ignored otherwise. */
    sim::SamplingConfig sampling;

    /**
     * Faults to inject. When set, the run also carries the invariant
     * auditor and its watchdog, and reports both in the output's
     * audit field; a run that does not finish is then a result, not
     * a fatal(). FaultConfig::none() audits without injecting.
     */
    std::optional<fault::FaultConfig> faults;
};

/**
 * Run @p params at a fixed frequency on the default Table II machine.
 */
FixedRunOutput runFixed(const wl::WorkloadParams &params, Frequency freq,
                        const RunOptions &opts = RunOptions());

/** Everything collected from one energy-manager-governed run. */
struct ManagedRunOutput {
    Tick totalTime = 0;
    power::EnergyBreakdown energy;
    std::vector<mgr::EnergyManager::Decision> decisions;
    std::uint32_t collections = 0;
    double averageGHz = 0.0;
    std::uint64_t transitions = 0;

    /**
     * Mode the run executed under, and its sampling provenance
     * (all-zero for exact runs). Both are fingerprint-neutral:
     * fingerprintRun(ManagedRunOutput) digests only the observable
     * outcome, so a gapWindow=0 sampled run fingerprints identically
     * to an exact one.
     */
    SimMode mode = SimMode::Exact;
    sim::SampleStats sampling;

    /** Quanta that fell back to the highest point (degraded mode). */
    std::uint64_t fallbacks = 0;

    /** Fault and invariant report of an audited run. */
    std::optional<AuditReport> audit;
};

/**
 * Run @p params under the energy manager (which starts the machine at
 * the table's highest frequency).
 */
ManagedRunOutput runManaged(const wl::WorkloadParams &params,
                            const mgr::ManagerConfig &mgr_cfg,
                            const power::VfTable &table,
                            const RunOptions &opts = RunOptions());

/** Mean of absolute values. */
double meanAbs(const std::vector<double> &xs);

} // namespace dvfs::exp

#endif // DVFS_EXP_EXPERIMENT_HH

/**
 * @file
 * The three benchmark workloads and what they share: the grids they
 * simulate, the run arguments, and the outcome every workload reports.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/experiment.hh"
#include "pred/predictors.hh"
#include "pins.hh"
#include "sim/sampling.hh"
#include "wl/params.hh"

namespace perfbench {

using namespace dvfs;

struct RunArgs {
    std::string workload;
    std::uint64_t seed = 0;  ///< drives schedules and request mixes only
    double seconds = 10.0;   ///< measured time of one run
    bool trace = false;      ///< per-layer run with spans recorded
    std::string workdir;     ///< writable scratch inside the checkout
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports; main() prints it as JSON. */
struct Outcome {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** A correctness failure: printed to stderr and fails the run. */
    void mismatch(const std::string &what);
};

// --- the grids (fixed here so the pins stay meaningful) ---------------

/** 1, 2, 3, 4 GHz: the Figure 3 operating points; 1 GHz is the base. */
std::vector<Frequency> fig3Freqs();

/** Machine seed of the Figure 3 grid and its recorded traces. */
constexpr std::uint64_t kFig3Seed = 42;

/** Replicate seeds of the sampled fixed grid (Figure 9 with 3 seeds). */
std::vector<std::uint64_t> sampledSeeds();

/** Managed grid (Figure 10 CI config): first 4 workloads, 1 seed. */
std::vector<wl::WorkloadParams> managedWorkloads();
std::vector<std::uint64_t> managedSeeds();
sim::SamplingConfig managedSampling();

/** The paper's predictor, DEP+BURST, from the registry's Figure 3 set. */
const pred::Predictor &depBurst();

/** Worker count for sweeps: hardware threads, at most 4. */
unsigned sweepWorkers();

// --- workloads ----------------------------------------------------------

Outcome runSimExact(const RunArgs &args, const Pins &pins);
Outcome runSimSampled(const RunArgs &args, const Pins &pins);
Outcome runServe(const RunArgs &args, const Pins &pins);

/**
 * Check each value against the pin under the same key: every one is
 * an attempt, every mismatch (or missing pin) a failure named on stderr.
 */
void checkCells(const std::vector<std::string> &keys,
                const std::vector<std::uint64_t> &values, const Pins &pins,
                Outcome &oc);

/** Simulate every pinned cell and write the pin file. */
void writePins(const std::string &path);

/** Peak resident set size of this process, MB. */
double peakRssMb();

/** Median of @p setups timings of @p fn, seconds. */
double medianSetupSeconds(int setups, const std::function<void()> &fn);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH

#include <sys/resource.h>

#include <algorithm>
#include <iostream>
#include <thread>

#include "exp/sweep/sweep.hh"
#include "pred/registry.hh"
#include "spans.hh"
#include "stats.hh"
#include "wl/suite.hh"
#include "workloads.hh"

namespace perfbench {

void
Outcome::mismatch(const std::string &what)
{
    std::cerr << "perfbench: MISMATCH: " << what << "\n";
    correct = false;
}

void
checkCells(const std::vector<std::string> &keys,
           const std::vector<std::uint64_t> &values, const Pins &pins,
           Outcome &oc)
{
    for (std::size_t i = 0; i < keys.size(); ++i) {
        oc.attempted += 1;
        const Pin *pin = pins.find(keys[i]);
        if (pin && pin->value == values[i])
            continue;
        oc.failed += 1;
        oc.mismatch(keys[i] + ": " + hex64(values[i]) + ", pinned " +
                    (pin ? hex64(pin->value) : std::string("none")));
    }
}

const pred::Predictor &
depBurst()
{
    static const auto zoo = pred::PredictorRegistry::instance().figure3Set();
    for (const auto &p : zoo) {
        if (p->name() == "DEP+BURST")
            return *p;
    }
    throw std::runtime_error("registry has no DEP+BURST predictor");
}

std::vector<Frequency>
fig3Freqs()
{
    return {Frequency::ghz(1.0), Frequency::ghz(2.0), Frequency::ghz(3.0),
            Frequency::ghz(4.0)};
}

std::vector<std::uint64_t>
sampledSeeds()
{
    return exp::sweep::SweepSpec::replicateSeeds(42, 3);
}

std::vector<wl::WorkloadParams>
managedWorkloads()
{
    auto all = wl::dacapoSuite();
    all.resize(std::min<std::size_t>(all.size(), 4));
    return all;
}

std::vector<std::uint64_t>
managedSeeds()
{
    return exp::sweep::SweepSpec::replicateSeeds(42, 1);
}

sim::SamplingConfig
managedSampling()
{
    sim::SamplingConfig cfg;
    cfg.detailWindow = 10 * kTicksPerUs;
    cfg.maxGapWindow = 7840 * kTicksPerUs;
    cfg.driftThresholdPermille = 200;
    return cfg;
}

unsigned
sweepWorkers()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(hw, 1u, 4u);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
medianSetupSeconds(int setups, const std::function<void()> &fn)
{
    std::vector<double> s;
    for (int i = 0; i < setups; ++i) {
        const std::int64_t t0 = nowNs();
        fn();
        s.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    return median(s);
}

} // namespace perfbench

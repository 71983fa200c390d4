/**
 * @file
 * Table II reproduction: simulated system parameters, plus a
 * self-check that the machine actually exhibits the configured
 * latencies (cache hit levels, unloaded DRAM latency).
 */

#include <iostream>

#include "bench_util.hh"
#include "exp/table.hh"
#include "sim/log.hh"
#include "os/system.hh"
#include "power/vf_table.hh"
#include "wl/builder.hh"

using namespace dvfs;

int
main(int argc, char **argv)
{
    bench::FlagSet("table2_system",
                   "simulated system parameters and latency self-check "
                   "(Table II)")
        .parse(argc, argv);

    os::SystemConfig cfg = wl::defaultSystemConfig(Frequency::ghz(1.0));
    os::System sys(cfg);

    std::cout << "Table II: simulated system parameters\n\n";

    exp::Table table({"component", "parameters"});
    table.addRow({"Processor",
                  dvfs::strprintf("%u cores, 1.0 GHz to 4.0 GHz (chip-wide DVFS)",
                            cfg.cores)});
    table.addRow({"Core",
                  dvfs::strprintf("out-of-order interval model, base IPC %.1f, "
                            "ROB %u, SQ %u entries",
                            cfg.core.baseIpc, cfg.core.robEntries,
                            cfg.core.sqEntries)});
    const auto &h = cfg.caches;
    table.addRow({"L1-D",
                  dvfs::strprintf("%u KB, %u-way, %u cycles (core clock)",
                            h.l1d.sizeBytes / 1024, h.l1d.assoc,
                            h.l1d.latencyCycles)});
    table.addRow({"L2",
                  dvfs::strprintf("%u KB, %u-way, %u cycles (core clock)",
                            h.l2.sizeBytes / 1024, h.l2.assoc,
                            h.l2.latencyCycles)});
    table.addRow({"L3 (shared)",
                  dvfs::strprintf("%u MB, %u-way, %u cycles @ %s (uncore)",
                            h.l3.sizeBytes / (1024 * 1024), h.l3.assoc,
                            h.l3.latencyCycles,
                            cfg.uncoreFreq.toString().c_str())});
    const auto &d = cfg.dram;
    table.addRow({"DRAM",
                  dvfs::strprintf("%u channels x %u banks, %u B lines, "
                            "tCAS/tRCD/tRP %.2f ns, burst %.1f ns",
                            d.channels, d.banksPerChannel, d.lineBytes,
                            d.tCasNs, d.tBurstNs)});
    table.addRow({"DVFS",
                  dvfs::strprintf("125 MHz steps, transition stall %.0f ns "
                            "(2 us at paper scale)",
                            ticksToNs(cfg.dvfsTransitionLatency))});

    auto vf = power::VfTable::haswell();
    table.addRow({"V/f table",
                  dvfs::strprintf("%zu operating points, %.2f V @ %s to "
                            "%.2f V @ %s",
                            vf.size(), vf.points().front().volts,
                            vf.lowest().toString().c_str(),
                            vf.points().back().volts,
                            vf.highest().toString().c_str())});
    table.print(std::cout);

    // Self-check: modelled latencies.
    std::cout << "\nSelf-check (measured from the model):\n";
    std::cout << "  unloaded DRAM read latency : "
              << ticksToNs(sys.dram().unloadedReadLatency()) << " ns\n";
    std::cout << "  L2 hit @1 GHz              : "
              << ticksToNs(sys.memory().l2HitTicks(Frequency::ghz(1.0)))
              << " ns (scales with core clock)\n";
    std::cout << "  L3 hit (uncore)            : "
              << ticksToNs(sys.memory().l3HitTicks())
              << " ns (fixed)\n";
    return 0;
}

/**
 * @file
 * Table I reproduction: benchmark characterisation at 1 GHz.
 *
 * Prints, per benchmark: type (memory/compute-intensive), heap size,
 * execution time and GC time at 1 GHz (de-scaled to the paper's time
 * base, i.e. simulated value x100), next to the values Table I of the
 * paper reports. The shape to check: relative run-time ordering and
 * the >10%-GC-time rule that classifies a benchmark memory-intensive.
 *
 * Usage: table1_benchmarks [--only=<name>] [--freq-mhz=1000]
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "exp/experiment.hh"
#include "exp/table.hh"

using namespace dvfs;

namespace {

/** Table I reference values (ms at 1 GHz). */
struct PaperRow {
    const char *name;
    double execMs;
    double gcMs;
};

constexpr PaperRow kPaper[] = {
    {"xalan", 1400, 270},       {"pmd", 1345, 230},
    {"pmd.scale", 500, 80},     {"lusearch", 2600, 285},
    {"lusearch.fix", 1249, 42}, {"avrora", 1782, 5},
    {"sunflow", 4900, 82},
};

double
paperExec(const std::string &name)
{
    for (const auto &r : kPaper) {
        if (name == r.name)
            return r.execMs;
    }
    return 0.0;
}

double
paperGc(const std::string &name)
{
    for (const auto &r : kPaper) {
        if (name == r.name)
            return r.gcMs;
    }
    return 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::FlagSet args("table1_benchmarks",
                        "benchmark characterisation (Table I)");
    args.add("only", "NAME", "run a single DaCapo benchmark")
        .add("freq-mhz", "N", "run frequency in MHz (default 1000)");
    args.parse(argc, argv);
    const auto workloads = bench::dacapoWorkloads(args.get("only"));
    const auto freq =
        Frequency::mhz(static_cast<std::uint32_t>(
            args.getInt("freq-mhz", 1000, 1, 100'000)));

    std::cout << "Table I: benchmark characterisation at "
              << freq.toString()
              << " (simulated times de-scaled x100, see DESIGN.md)\n\n";

    exp::Table table({"benchmark", "type", "heap(MB)", "exec(ms)",
                      "paper exec", "GC(ms)", "paper GC", "GC share",
                      "GCs", "alloc(MB)"});

    for (const auto &params : workloads) {
        auto out = exp::runFixed(params, freq);
        const double exec_ms = wl::descaleMs(out.totalTime);
        const double gc_ms = wl::descaleMs(out.gcTime);
        table.addRow({
            params.name,
            params.memoryIntensive ? "M" : "C",
            std::to_string(params.heapMB),
            exp::Table::fmt(exec_ms, 0),
            exp::Table::fmt(paperExec(params.name), 0),
            exp::Table::fmt(gc_ms, 0),
            exp::Table::fmt(paperGc(params.name), 0),
            exp::Table::pct(static_cast<double>(out.gcTime) /
                            static_cast<double>(out.totalTime)),
            std::to_string(out.collections),
            exp::Table::fmt(static_cast<double>(out.allocatedBytes) /
                                (1 << 20),
                            1),
        });
    }
    table.print(std::cout);
    return 0;
}

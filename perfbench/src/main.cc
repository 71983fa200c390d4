/**
 * @file
 * perfbench: one run of one benchmark workload.
 *
 * Usage:
 *   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
 *             --workdir=DIR --pins=FILE [--trace-file=FILE]
 *   perfbench --pin --pins=FILE      (re-pin simulated results)
 *
 * Prints a readable report, then as its last line one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 * With --trace=1 it also writes the spans to FILE (default
 * DIR/trace-<workload>-<seed>.json) in Chrome-trace format and prints
 * each layer's self time.
 */

#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "spans.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

std::map<std::string, std::string>
parseArgs(int argc, char **argv)
{
    std::map<std::string, std::string> out;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind("--", 0) != 0)
            throw std::runtime_error("unexpected argument '" + a + "'");
        const auto eq = a.find('=');
        if (eq == std::string::npos)
            out[a.substr(2)] = "";
        else
            out[a.substr(2, eq - 2)] = a.substr(eq + 1);
    }
    return out;
}

std::string
require(const std::map<std::string, std::string> &args,
        const std::string &key)
{
    auto it = args.find(key);
    if (it == args.end() || it->second.empty())
        throw std::runtime_error("missing --" + key);
    return it->second;
}

void
printLayers(const std::string &path)
{
    const auto spans = collectSpans();
    std::ofstream out(path);
    writeChromeTrace(out, spans);
    if (!out)
        throw std::runtime_error("cannot write trace '" + path + "'");
    std::cout << "\ntrace: " << spans.size() << " spans ("
              << droppedSpans() << " dropped) written to " << path
              << "\n";
    std::cout << std::left << std::setw(34) << "layer" << std::right
              << std::setw(10) << "spans" << std::setw(14) << "total ms"
              << std::setw(14) << "self ms" << "\n";
    for (const LayerTime &l : layerTimes(spans)) {
        std::cout << std::left << std::setw(34) << l.name << std::right
                  << std::setw(10) << l.count << std::setw(14)
                  << std::fixed << std::setprecision(3) << l.totalMs
                  << std::setw(14) << l.selfMs << "\n";
    }
    std::cout.unsetf(std::ios::floatfield);
}

std::string
resultJson(const Outcome &oc)
{
    std::ostringstream os;
    os << std::setprecision(17);
    os << "{\"correct\": " << (oc.correct ? "true" : "false")
       << ", \"attempted\": " << oc.attempted
       << ", \"failed\": " << oc.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < oc.metrics.size(); ++i) {
        const Metric &m = oc.metrics[i];
        os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
           << m.value << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const auto args = parseArgs(argc, argv);
        const std::string pinsPath = require(args, "pins");
        if (args.count("pin")) {
            writePins(pinsPath);
            return 0;
        }
        RunArgs ra;
        ra.workload = require(args, "workload");
        ra.seed = std::stoull(require(args, "seed"));
        ra.seconds = std::stod(require(args, "seconds"));
        ra.trace = require(args, "trace") == "1";
        ra.workdir = require(args, "workdir");
        const Pins pins = Pins::load(pinsPath);

        Outcome oc;
        if (ra.workload == "sim-exact")
            oc = runSimExact(ra, pins);
        else if (ra.workload == "sim-sampled")
            oc = runSimSampled(ra, pins);
        else if (ra.workload == "serve-light")
            oc = runServe(ra, pins);
        else
            throw std::runtime_error("unknown workload '" + ra.workload +
                                     "'");

        if (ra.trace) {
            const auto file = args.find("trace-file");
            printLayers(file != args.end()
                            ? file->second
                            : ra.workdir + "/trace-" + ra.workload + "-" +
                                  std::to_string(ra.seed) + ".json");
        }
        std::cout << resultJson(oc) << std::endl;
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}

/**
 * @file
 * Shared helpers for the experiment harness binaries.
 *
 * FlagSet is the one CLI parser every harness uses: flags are declared
 * once (key, value hint, help line), --help output is generated from
 * the declarations, an unknown flag is fatal() naming the flag, and a
 * malformed or out-of-range value is fatal() naming the flag it was
 * passed to. The canned addWorkers()/addMode()/addSampling()/
 * addRepeat() declarations keep the flags every harness shares
 * spelled — and documented — identically across binaries.
 */

#ifndef DVFS_BENCH_BENCH_UTIL_HH
#define DVFS_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "exp/sweep/pool.hh"
#include "exp/sweep/sweep.hh"
#include "sim/log.hh"
#include "sim/sampling.hh"
#include "wl/suite.hh"

namespace dvfs::bench {

/**
 * Declared-flags CLI parser with a generated --help.
 *
 * Declare every flag up front, then parse(). --help prints the
 * generated listing and exits 0; any flag that was not declared is
 * fatal(), naming the flag.
 */
class FlagSet
{
  public:
    /**
     * @param prog     binary name, used in help and fatal messages.
     * @param summary  one-line description printed atop --help.
     */
    FlagSet(std::string prog, std::string summary)
        : _prog(std::move(prog)), _summary(std::move(summary))
    {
    }

    /**
     * Declare a value flag --key=HINT. @p help should include the
     * default in prose (house style: "... (default 4)").
     */
    FlagSet &
    add(const std::string &key, const std::string &hint,
        const std::string &help)
    {
        _flags.push_back({key, hint, help});
        return *this;
    }

    /** Declare a boolean flag --key. */
    FlagSet &
    addBool(const std::string &key, const std::string &help)
    {
        _flags.push_back({key, "", help});
        return *this;
    }

    /** @name Canned shared-flag declarations
     * One spelling and one help line for the flags most harnesses
     * share, so --help reads identically across binaries.
     */
    ///@{
    FlagSet &
    addWorkers()
    {
        return add("workers", "N",
                   "sweep pool width (default: DVFS_SWEEP_WORKERS or "
                   "hardware threads)");
    }

    FlagSet &
    addMode()
    {
        return add("mode", "exact|sampled",
                   "simulation fidelity (default exact)");
    }

    FlagSet &
    addSampling()
    {
        add("startup-us", "N",
            "sampled: initial detail period (default 60)");
        add("detail-us", "N",
            "sampled: periodic detail window (default 30)");
        add("gap-us", "N",
            "sampled: fast-forwarded gap (default 980)");
        add("max-gap-us", "N",
            "sampled: adaptive gap stretch cap (default 0 = fixed "
            "cadence)");
        return add("drift-permille", "N",
                   "sampled: drift threshold for stretching (default "
                   "50)");
    }

    FlagSet &
    addRepeat()
    {
        return add("repeat", "N",
                   "repeats per configuration, min wall reported "
                   "(default 1)");
    }

    FlagSet &
    addTraceDir(const std::string &help)
    {
        return add("trace-dir", "DIR", help);
    }
    ///@}

    /**
     * Parse argv. --help prints the generated listing and exits 0;
     * an undeclared flag (or a non-flag argument) is fatal(), naming
     * the offender.
     */
    void
    parse(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--help" || arg == "-h") {
                std::cout << help();
                std::exit(0);
            }
            const Flag *f = match(arg);
            if (!f) {
                fatal("%s: unknown flag '%s' (try --help)",
                      _prog.c_str(), arg.c_str());
            }
            record(*f, arg);
        }
    }

    /** The generated --help text. */
    std::string
    help() const
    {
        std::size_t width = 0;
        for (const Flag &f : _flags)
            width = std::max(width, spelling(f).size());

        std::string out = _prog + ": " + _summary + "\n";
        for (const Flag &f : _flags) {
            const std::string s = spelling(f);
            out += "  " + s + std::string(width - s.size() + 2, ' ') +
                   f.help + "\n";
        }
        return out;
    }

    std::string
    get(const std::string &key, const std::string &def = "") const
    {
        requireDeclared(key);
        for (const auto &[k, v] : _values) {
            if (k == key)
                return v;
        }
        return def;
    }

    bool
    has(const std::string &key) const
    {
        requireDeclared(key);
        for (const auto &[k, v] : _values) {
            if (k == key)
                return true;
        }
        return false;
    }

    /**
     * Integer value of --key, @p def if absent. A value outside the
     * inclusive range [@p lo, @p hi] is fatal(), naming the flag:
     * counts and widths bound it to what their unsigned type holds
     * instead of letting a negative value wrap.
     */
    long
    getInt(const std::string &key, long def,
           long lo = std::numeric_limits<long>::min(),
           long hi = std::numeric_limits<long>::max()) const
    {
        std::string v = get(key);
        if (v.empty())
            return def;
        char *end = nullptr;
        errno = 0;
        long parsed = std::strtol(v.c_str(), &end, 10);
        if (end == v.c_str() || *end != '\0') {
            fatal("--%s: expected an integer, got '%s'", key.c_str(),
                  v.c_str());
        }
        if (errno == ERANGE || parsed < lo || parsed > hi) {
            fatal("--%s: %s is out of range [%ld, %ld]", key.c_str(),
                  v.c_str(), lo, hi);
        }
        return parsed;
    }

    double
    getDouble(const std::string &key, double def) const
    {
        std::string v = get(key);
        if (v.empty())
            return def;
        char *end = nullptr;
        double parsed = std::strtod(v.c_str(), &end);
        if (end == v.c_str() || *end != '\0') {
            fatal("--%s: expected a number, got '%s'", key.c_str(),
                  v.c_str());
        }
        return parsed;
    }

  private:
    struct Flag {
        std::string key;
        std::string hint;  ///< value hint; empty for boolean flags
        std::string help;
    };

    std::string
    spelling(const Flag &f) const
    {
        return "--" + f.key + (f.hint.empty() ? "" : "=" + f.hint);
    }

    const Flag *
    match(const std::string &arg) const
    {
        for (const Flag &f : _flags) {
            const std::string flag = "--" + f.key;
            if (arg == flag || arg.rfind(flag + "=", 0) == 0)
                return &f;
        }
        return nullptr;
    }

    void
    record(const Flag &f, const std::string &arg)
    {
        const std::string prefix = "--" + f.key + "=";
        if (arg.rfind(prefix, 0) == 0)
            _values.emplace_back(f.key, arg.substr(prefix.size()));
        else
            _values.emplace_back(f.key, "");
    }

    void
    requireDeclared(const std::string &key) const
    {
        for (const Flag &f : _flags) {
            if (f.key == key)
                return;
        }
        panic("%s queried undeclared flag --%s", _prog.c_str(),
              key.c_str());
    }

    std::string _prog;
    std::string _summary;
    std::vector<Flag> _flags;
    /** (key, value) in command-line order; boolean presence = "". */
    std::vector<std::pair<std::string, std::string>> _values;
};

/**
 * Sweep pool width for a harness binary: --workers=N if given, else
 * DVFS_SWEEP_WORKERS / hardware_concurrency via defaultWorkers().
 */
inline unsigned
sweepWorkers(const FlagSet &args)
{
    const long w = args.getInt("workers", 0, 1,
                               std::numeric_limits<unsigned>::max());
    return w ? static_cast<unsigned>(w) : exp::sweep::defaultWorkers();
}

/** Repeats per configuration from --repeat=N (default 1, N >= 1). */
inline unsigned
repeatFromArgs(const FlagSet &args)
{
    return static_cast<unsigned>(args.getInt(
        "repeat", 1, 1, std::numeric_limits<unsigned>::max()));
}

/**
 * Simulation mode from --mode=exact|sampled (default exact).
 * fatal()s on any other value, naming the flag.
 */
inline exp::SimMode
modeFromArgs(const FlagSet &args)
{
    return exp::parseSimMode(args.get("mode", "exact"), "--mode");
}

/**
 * Sampling window placement from --startup-us / --detail-us /
 * --gap-us, defaulting to the library's measured sweet spot
 * (sim::SamplingConfig). Only meaningful with --mode=sampled.
 */
inline sim::SamplingConfig
samplingFromArgs(const FlagSet &args)
{
    sim::SamplingConfig cfg;
    cfg.startupDetail = static_cast<Tick>(args.getInt(
                            "startup-us",
                            static_cast<long>(cfg.startupDetail /
                                              kTicksPerUs))) *
                        kTicksPerUs;
    cfg.detailWindow = static_cast<Tick>(args.getInt(
                           "detail-us",
                           static_cast<long>(cfg.detailWindow /
                                             kTicksPerUs))) *
                       kTicksPerUs;
    cfg.gapWindow = static_cast<Tick>(args.getInt(
                        "gap-us",
                        static_cast<long>(cfg.gapWindow / kTicksPerUs))) *
                    kTicksPerUs;
    // Adaptive placement: --max-gap-us caps the stretched gap (0 =
    // fixed cadence), --drift-permille sets the steadiness threshold.
    cfg.maxGapWindow =
        static_cast<Tick>(args.getInt(
            "max-gap-us",
            static_cast<long>(cfg.maxGapWindow / kTicksPerUs))) *
        kTicksPerUs;
    cfg.driftThresholdPermille = static_cast<std::uint32_t>(args.getInt(
        "drift-permille",
        static_cast<long>(cfg.driftThresholdPermille)));
    return cfg;
}

/**
 * The Figure 3 ground-truth grid: the DaCapo suite (optionally the
 * first @p n_bench entries, or the one named by @p only) crossed with
 * the four operating points both directions read. Shared by
 * fig3_accuracy, trace_record and trace_replay so record and replay
 * agree on cell coordinates. Seeds stay at the spec default ({42}).
 */
inline exp::sweep::SweepSpec
fig3GridSpec(std::size_t n_bench = 0, const std::string &only = "")
{
    exp::sweep::SweepSpec spec;
    for (const auto &params : wl::dacapoSuite()) {
        if (n_bench != 0 && spec.workloads.size() >= n_bench)
            break;
        if (only.empty() || params.name == only)
            spec.workloads.push_back(params);
    }
    spec.frequencies = {Frequency::ghz(1.0), Frequency::ghz(2.0),
                        Frequency::ghz(3.0), Frequency::ghz(4.0)};
    return spec;
}

} // namespace dvfs::bench

#endif // DVFS_BENCH_BENCH_UTIL_HH

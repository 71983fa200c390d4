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
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
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
                   "sweep pool width (default: hardware threads)");
    }

    FlagSet &
    addMode()
    {
        return add("mode", "exact|sampled",
                   "simulation fidelity (default exact)");
    }

    /** The sampled-mode flags except --gap-us (fig9 sweeps --gaps). */
    FlagSet &
    addSamplingWindows()
    {
        add("startup-us", "N",
            "sampled: initial detail period (default 60)");
        add("detail-us", "N",
            "sampled: periodic detail window (default 30)");
        add("max-gap-us", "N",
            "sampled: adaptive gap stretch cap (default 0 = fixed "
            "cadence)");
        return add("drift-permille", "N",
                   "sampled: drift threshold for stretching (default "
                   "50)");
    }

    FlagSet &
    addSampling()
    {
        return addSamplingWindows().add(
            "gap-us", "N", "sampled: fast-forwarded gap (default 980)");
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
        const std::string v = get(key);
        return v.empty() ? def : parseInt(key, v, lo, hi);
    }

    /**
     * Comma-separated integers of --key, @p def if absent. Every
     * element is checked like getInt(): malformed or outside
     * [@p lo, @p hi] is fatal(), naming the flag.
     */
    std::vector<long>
    getIntList(const std::string &key, std::vector<long> def, long lo,
               long hi) const
    {
        return getList(key, std::move(def), [&](const std::string &v) {
            return parseInt(key, v, lo, hi);
        });
    }

    /**
     * Comma-separated numbers of --key, @p def if absent. Every
     * element is checked like getDouble(): malformed, non-finite or
     * outside [@p lo, @p hi] is fatal(), naming the flag.
     */
    std::vector<double>
    getDoubleList(const std::string &key, std::vector<double> def,
                  double lo, double hi) const
    {
        return getList(key, std::move(def), [&](const std::string &v) {
            return parseDouble(key, v, lo, hi);
        });
    }

    /**
     * Value of --key, @p def if absent; a value outside @p choices is
     * fatal(), naming the flag.
     */
    std::string
    getChoice(const std::string &key, const std::string &def,
              const std::vector<std::string> &choices) const
    {
        const std::string v = get(key, def);
        if (std::find(choices.begin(), choices.end(), v) == choices.end())
            fatal("--%s: unknown value '%s' (try --help)", key.c_str(),
                  v.c_str());
        return v;
    }

    /**
     * 64-bit hex value of --key (1-16 hex digits, optional 0x),
     * nullopt if absent. Anything else is fatal(), naming the flag.
     */
    std::optional<std::uint64_t>
    getHex64(const std::string &key) const
    {
        if (!has(key))
            return std::nullopt;
        const std::string v = get(key);
        std::string_view digits = v;
        if (digits.starts_with("0x") || digits.starts_with("0X"))
            digits.remove_prefix(2);
        const bool ok =
            !digits.empty() && digits.size() <= 16 &&
            std::all_of(digits.begin(), digits.end(),
                        [](unsigned char c) { return std::isxdigit(c); });
        if (!ok) {
            fatal("--%s: expected a 64-bit hex value, got '%s'",
                  key.c_str(), v.c_str());
        }
        return std::stoull(std::string(digits), nullptr, 16);
    }

    /**
     * Number of --key, @p def if absent. A value that is malformed,
     * not finite (nan, inf, or out of double's range) or outside the
     * inclusive range [@p lo, @p hi] is fatal(), naming the flag: a
     * nan compares false against every bound, so it would otherwise
     * slip past any check or gate the caller makes.
     */
    double
    getDouble(const std::string &key, double def, double lo,
              double hi) const
    {
        const std::string v = get(key);
        return v.empty() ? def : parseDouble(key, v, lo, hi);
    }

  private:
    struct Flag {
        std::string key;
        std::string hint;  ///< value hint; empty for boolean flags
        std::string help;
    };

    static long
    parseInt(const std::string &key, const std::string &v, long lo,
             long hi)
    {
        char *end = nullptr;
        errno = 0;
        const long parsed = std::strtol(v.c_str(), &end, 10);
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

    static double
    parseDouble(const std::string &key, const std::string &v, double lo,
                double hi)
    {
        char *end = nullptr;
        errno = 0;
        const double parsed = std::strtod(v.c_str(), &end);
        if (end == v.c_str() || *end != '\0') {
            fatal("--%s: expected a number, got '%s'", key.c_str(),
                  v.c_str());
        }
        if (errno == ERANGE || !std::isfinite(parsed) || parsed < lo ||
            parsed > hi) {
            fatal("--%s: %s is out of range [%g, %g]", key.c_str(),
                  v.c_str(), lo, hi);
        }
        return parsed;
    }

    /** Split --key's value at commas and parse each element. */
    template <typename T, typename Parse>
    std::vector<T>
    getList(const std::string &key, std::vector<T> def, Parse parse) const
    {
        const std::string v = get(key);
        if (v.empty())
            return def;
        std::vector<T> out;
        std::size_t pos = 0;
        for (;;) {
            const std::size_t comma = std::min(v.find(',', pos), v.size());
            out.push_back(parse(v.substr(pos, comma - pos)));
            if (comma == v.size())
                return out;
            pos = comma + 1;
        }
    }

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
 * the hardware width (defaultWorkers()).
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
 * Upper bound of every microsecond flag: 1000 s of simulated time,
 * far beyond any run and far from wrapping us * kTicksPerUs.
 */
inline constexpr long kMaxSimUs = 1'000'000'000;

/** Upper bound of a number flag with no natural cap: any finite value. */
inline constexpr double kAnyFinite = std::numeric_limits<double>::max();

/** Microsecond flag --@p key in [@p lo, kMaxSimUs], as ticks. */
inline Tick
usFromArgs(const FlagSet &args, const char *key, Tick def, long lo)
{
    return static_cast<Tick>(args.getInt(
               key, static_cast<long>(def / kTicksPerUs), lo,
               kMaxSimUs)) *
           kTicksPerUs;
}

/**
 * Sampling window placement from the addSamplingWindows() flags,
 * defaulting to the library's measured sweet spot
 * (sim::SamplingConfig); the gap keeps its default. Only meaningful
 * with --mode=sampled.
 */
inline sim::SamplingConfig
samplingWindowsFromArgs(const FlagSet &args)
{
    sim::SamplingConfig cfg;
    cfg.startupDetail =
        usFromArgs(args, "startup-us", cfg.startupDetail, 0);
    cfg.detailWindow = usFromArgs(args, "detail-us", cfg.detailWindow, 1);
    // Adaptive placement: --max-gap-us caps the stretched gap (0 =
    // fixed cadence), --drift-permille sets the steadiness threshold.
    cfg.maxGapWindow = usFromArgs(args, "max-gap-us", cfg.maxGapWindow, 0);
    cfg.driftThresholdPermille = static_cast<std::uint32_t>(args.getInt(
        "drift-permille", static_cast<long>(cfg.driftThresholdPermille),
        0, std::numeric_limits<std::uint32_t>::max()));
    return cfg;
}

/** samplingWindowsFromArgs() plus the gap from --gap-us. */
inline sim::SamplingConfig
samplingFromArgs(const FlagSet &args)
{
    sim::SamplingConfig cfg = samplingWindowsFromArgs(args);
    cfg.gapWindow = usFromArgs(args, "gap-us", cfg.gapWindow, 0);
    return cfg;
}

/**
 * The DaCapo suite, or its first @p n_bench entries (0 = all), or the
 * one named by @p only. An @p only that names no benchmark is fatal().
 */
inline std::vector<wl::WorkloadParams>
dacapoWorkloads(const std::string &only = "", std::size_t n_bench = 0)
{
    std::vector<wl::WorkloadParams> out;
    for (const auto &params : wl::dacapoSuite()) {
        if (n_bench != 0 && out.size() >= n_bench)
            break;
        if (only.empty() || params.name == only)
            out.push_back(params);
    }
    if (out.empty())
        fatal("no benchmark matches --only=%s", only.c_str());
    return out;
}

/**
 * The Figure 3 ground-truth grid: dacapoWorkloads(@p only, @p n_bench)
 * crossed with the four operating points both directions read.
 * fig3_accuracy records, replays and verifies it; fig9 and sweep_bench
 * run it in both simulation modes; ablation_estimators and fig4_ctp
 * keep its 1 and 4 GHz columns. Seeds stay at the spec default
 * ({42}), so trace files recorded by one harness replay in another.
 */
inline exp::sweep::SweepSpec
fig3GridSpec(std::size_t n_bench = 0, const std::string &only = "")
{
    exp::sweep::SweepSpec spec;
    spec.workloads = dacapoWorkloads(only, n_bench);
    spec.frequencies = {Frequency::ghz(1.0), Frequency::ghz(2.0),
                        Frequency::ghz(3.0), Frequency::ghz(4.0)};
    return spec;
}

/**
 * Write the file @p path through @p write(std::ostream &) and close
 * it; fatal() naming the path if it cannot be opened or written.
 */
template <typename WriteFn>
void
writeFile(const std::string &path, WriteFn &&write)
{
    std::ofstream f(path);
    write(f);
    f.close();
    if (!f)
        fatal("cannot write '%s'", path.c_str());
}

} // namespace dvfs::bench

#endif // DVFS_BENCH_BENCH_UTIL_HH

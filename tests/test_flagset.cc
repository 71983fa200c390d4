/**
 * @file
 * bench::FlagSet: the declared-flags CLI parser the harnesses share.
 *
 * The consolidation contract: flags are declared once, --help is
 * generated from the declarations, an unknown flag or a malformed or
 * out-of-range value is fatal() *naming the offending flag*, and
 * querying a key that was never declared is a programming error
 * (panic).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "../bench/bench_util.hh"
#include "../bench/mode_comparison.hh"

using dvfs::bench::FlagSet;

namespace {

/** argv builder (parse takes char**, tests hold the storage). */
struct Argv {
    explicit Argv(std::vector<std::string> args) : _args(std::move(args))
    {
        _ptrs.push_back(const_cast<char *>("prog"));
        for (const auto &a : _args)
            _ptrs.push_back(const_cast<char *>(a.c_str()));
        _ptrs.push_back(nullptr);
    }

    int argc() const { return static_cast<int>(_ptrs.size()) - 1; }
    char **argv() { return _ptrs.data(); }

  private:
    std::vector<std::string> _args;
    std::vector<char *> _ptrs;
};

FlagSet
sampleFlags()
{
    FlagSet flags("prog", "test fixture");
    flags.add("count", "N", "how many (default 1)")
        .add("ratio", "X", "scale factor (default 1.0)")
        .add("name", "S", "a label")
        .addBool("verbose", "say more")
        .addWorkers();
    return flags;
}

} // namespace

TEST(FlagSet, ParsesDeclaredFlagsWithTypedAccess)
{
    auto flags = sampleFlags();
    Argv argv({"--count=42", "--ratio=2.5", "--name=abc", "--verbose"});
    flags.parse(argv.argc(), argv.argv());

    EXPECT_EQ(flags.getInt("count", 1), 42);
    EXPECT_DOUBLE_EQ(flags.getDouble("ratio", 1.0, 0.0, 10.0), 2.5);
    EXPECT_EQ(flags.get("name"), "abc");
    EXPECT_TRUE(flags.has("verbose"));
    // Declared but not passed: defaults apply, has() is false.
    EXPECT_FALSE(flags.has("workers"));
    EXPECT_EQ(flags.getInt("workers", 0), 0);
}

TEST(FlagSet, HelpListsEveryDeclaredFlag)
{
    const std::string help = sampleFlags().help();
    EXPECT_NE(help.find("prog: test fixture"), std::string::npos);
    EXPECT_NE(help.find("--count=N"), std::string::npos);
    EXPECT_NE(help.find("--ratio=X"), std::string::npos);
    EXPECT_NE(help.find("--verbose"), std::string::npos);
    // Canned declarations carry the shared spelling and help line.
    EXPECT_NE(help.find("--workers=N"), std::string::npos);
    EXPECT_NE(help.find("sweep pool width"), std::string::npos);
    // Boolean flags show no =HINT.
    EXPECT_EQ(help.find("--verbose="), std::string::npos);
}

TEST(FlagSetDeathTest, UnknownFlagIsFatalNamingTheFlag)
{
    auto flags = sampleFlags();
    Argv argv({"--bogus=1"});
    EXPECT_EXIT(flags.parse(argv.argc(), argv.argv()),
                testing::ExitedWithCode(1),
                "unknown flag '--bogus=1'");
}

TEST(FlagSetDeathTest, MalformedValueIsFatalNamingTheFlag)
{
    auto flags = sampleFlags();
    Argv argv({"--count=abc", "--ratio=x2"});
    flags.parse(argv.argc(), argv.argv());
    EXPECT_EXIT((void)flags.getInt("count", 1),
                testing::ExitedWithCode(1),
                "--count: expected an integer, got 'abc'");
    EXPECT_EXIT((void)flags.getDouble("ratio", 1.0, 0.0, 10.0),
                testing::ExitedWithCode(1),
                "--ratio: expected a number, got 'x2'");
}

TEST(FlagSetDeathTest, NegativeCountIsFatalNamingTheFlag)
{
    // A count bounded below by 1: unchecked, --seeds=-1 reaches
    // vector::reserve as SIZE_MAX and dies on std::length_error.
    auto flags = sampleFlags();
    Argv argv({"--count=-1"});
    flags.parse(argv.argc(), argv.argv());
    EXPECT_EXIT((void)flags.getInt("count", 1, 1),
                testing::ExitedWithCode(1),
                "--count: -1 is out of range \\[1, ");
    // In range, and absent (the default is not range-checked).
    Argv ok({"--count=7"});
    auto in_range = sampleFlags();
    in_range.parse(ok.argc(), ok.argv());
    EXPECT_EQ(in_range.getInt("count", 1, 1, 7), 7);
    EXPECT_EQ(sampleFlags().getInt("count", 0, 1), 0);
}

TEST(FlagSetDeathTest, PortAbove65535IsFatalNamingTheFlag)
{
    // Unchecked, dvfsd --port=70000 wraps through uint16_t to 4464.
    FlagSet flags("prog", "test fixture");
    flags.add("port", "N", "TCP port");
    Argv argv({"--port=70000"});
    flags.parse(argv.argc(), argv.argv());
    EXPECT_EXIT((void)flags.getInt("port", 0, 0, 65535),
                testing::ExitedWithCode(1),
                "--port: 70000 is out of range \\[0, 65535\\]");
}

TEST(FlagSetDeathTest, OverflowingIntegerIsFatalNamingTheFlag)
{
    // strtol saturates at LONG_MAX, which would pass an open range.
    auto flags = sampleFlags();
    Argv argv({"--count=99999999999999999999"});
    flags.parse(argv.argc(), argv.argv());
    EXPECT_EXIT((void)flags.getInt("count", 1),
                testing::ExitedWithCode(1),
                "--count: 99999999999999999999 is out of range");
}

TEST(FlagSet, IntListAndHex64ParseWellFormedValues)
{
    FlagSet flags("prog", "test fixture");
    flags.add("targets", "MHZ,...", "frequencies")
        .add("gaps", "CSV", "gap lengths")
        .add("fp", "0x...", "digest")
        .add("FP", "HEX", "digest, upper case and unprefixed");
    Argv argv({"--targets=2000,3000,4000", "--fp=0xb806f47ff81388e0",
               "--FP=B806F47FF81388E0"});
    flags.parse(argv.argc(), argv.argv());

    EXPECT_EQ(flags.getIntList("targets", {1}, 1, 100000),
              (std::vector<long>{2000, 3000, 4000}));
    EXPECT_EQ(flags.getIntList("gaps", {980}, 0, 1000),
              std::vector<long>{980});
    EXPECT_EQ(flags.getHex64("fp"), 0xb806f47ff81388e0ull);
    EXPECT_EQ(flags.getHex64("FP"), 0xb806f47ff81388e0ull);
    EXPECT_EQ(sampleFlags().getHex64("name"), std::nullopt);
}

TEST(FlagSetDeathTest, BadIntListElementIsFatalNamingTheFlag)
{
    // Unchecked, fig1 --targets=abc aborted on std::invalid_argument,
    // --targets=-1000 wrapped to a 4294966 MHz column, and fig9
    // --gaps=5x ran a 5 us gap.
    FlagSet flags("prog", "test fixture");
    flags.add("a", "CSV", "").add("b", "CSV", "").add("c", "CSV", "").add(
        "d", "CSV", "");
    Argv argv({"--a=abc", "--b=2000,-1000", "--c=5x", "--d=1,,2"});
    flags.parse(argv.argc(), argv.argv());
    EXPECT_EXIT((void)flags.getIntList("a", {}, 1, 100000),
                testing::ExitedWithCode(1),
                "--a: expected an integer, got 'abc'");
    EXPECT_EXIT((void)flags.getIntList("b", {}, 1, 100000),
                testing::ExitedWithCode(1),
                "--b: -1000 is out of range \\[1, 100000\\]");
    EXPECT_EXIT((void)flags.getIntList("c", {}, 0, 100000),
                testing::ExitedWithCode(1),
                "--c: expected an integer, got '5x'");
    EXPECT_EXIT((void)flags.getIntList("d", {}, 0, 100000),
                testing::ExitedWithCode(1),
                "--d: expected an integer, got ''");
}

TEST(FlagSetDeathTest, BadHex64IsFatalNamingTheFlag)
{
    // Unchecked, std::stoull aborted on 'zz' after the whole grid ran
    // and read '0x12junk' as 0x12.
    FlagSet flags("prog", "test fixture");
    flags.add("a", "0x...", "").add("b", "0x...", "").add("c", "0x...", "")
        .add("d", "0x...", "").add("e", "0x...", "");
    Argv argv({"--a=zz", "--b=0x12junk", "--c=0x", "--d=-1",
               "--e=0x1234567890abcdef0"});
    flags.parse(argv.argc(), argv.argv());
    for (const char *key : {"a", "b", "c", "d", "e"}) {
        EXPECT_EXIT((void)flags.getHex64(key), testing::ExitedWithCode(1),
                    std::string("--") + key +
                        ": expected a 64-bit hex value, got '");
    }
}

TEST(FlagSetDeathTest, NegativeHarnessValuesAreFatalNotWrapped)
{
    // Unchecked, table1 --freq-mhz=-1000 printed "4294966.296 GHz",
    // fig7 --step-mhz=-250 stepped by ~4.29 GHz, fig6 --quantum-us=-5
    // reported 0.0% savings and fig5 --holdoff=-1 made no decisions.
    FlagSet flags("prog", "test fixture");
    flags.add("freq-mhz", "N", "").add("step-mhz", "N", "")
        .add("quantum-us", "N", "").add("holdoff", "N", "");
    Argv argv({"--freq-mhz=-1000", "--step-mhz=-250", "--quantum-us=-5",
               "--holdoff=-1"});
    flags.parse(argv.argc(), argv.argv());
    EXPECT_EXIT((void)flags.getInt("freq-mhz", 1000, 1, 100'000),
                testing::ExitedWithCode(1),
                "--freq-mhz: -1000 is out of range \\[1, 100000\\]");
    EXPECT_EXIT((void)flags.getInt("step-mhz", 250, 1, 3000),
                testing::ExitedWithCode(1),
                "--step-mhz: -250 is out of range \\[1, 3000\\]");
    EXPECT_EXIT(
        (void)flags.getInt("quantum-us", 50, 1, dvfs::bench::kMaxSimUs),
        testing::ExitedWithCode(1), "--quantum-us: -5 is out of range");
    EXPECT_EXIT((void)flags.getInt("holdoff", 2, 1,
                                   std::numeric_limits<std::uint32_t>::max()),
                testing::ExitedWithCode(1),
                "--holdoff: -1 is out of range \\[1, 4294967295\\]");
}

TEST(FlagSet, DoubleListAndChoiceParseWellFormedValues)
{
    FlagSet flags("prog", "test fixture");
    flags.add("thresholds", "CSV", "").add("dir", "up|down|both", "");
    Argv argv({"--thresholds=0.05,0.1,1e-2", "--dir=down"});
    flags.parse(argv.argc(), argv.argv());
    EXPECT_EQ(flags.getDoubleList("thresholds", {0.5}, 0.0, 1.0),
              (std::vector<double>{0.05, 0.1, 0.01}));
    EXPECT_EQ(flags.getChoice("dir", "both", {"up", "down", "both"}),
              "down");

    FlagSet absent("prog", "test fixture");
    absent.add("thresholds", "CSV", "").add("dir", "up|down|both", "");
    EXPECT_EQ(absent.getDoubleList("thresholds", {0.05, 0.10}, 0.0, 1.0),
              (std::vector<double>{0.05, 0.10}));
    EXPECT_EQ(absent.getChoice("dir", "both", {"up", "down", "both"}),
              "both");
}

TEST(FlagSetDeathTest, BadDoubleListElementIsFatalNamingTheFlag)
{
    // Unchecked, fig6 --thresholds=abc aborted on an uncaught
    // std::invalid_argument and --thresholds=0.1x was read as 0.1.
    FlagSet flags("prog", "test fixture");
    flags.add("a", "CSV", "").add("b", "CSV", "").add("c", "CSV", "");
    Argv argv({"--a=abc", "--b=0.1x", "--c=0.05,,0.1"});
    flags.parse(argv.argc(), argv.argv());
    EXPECT_EXIT((void)flags.getDoubleList("a", {}, 0.0, 1.0),
                testing::ExitedWithCode(1),
                "--a: expected a number, got 'abc'");
    EXPECT_EXIT((void)flags.getDoubleList("b", {}, 0.0, 1.0),
                testing::ExitedWithCode(1),
                "--b: expected a number, got '0.1x'");
    EXPECT_EXIT((void)flags.getDoubleList("c", {}, 0.0, 1.0),
                testing::ExitedWithCode(1),
                "--c: expected a number, got ''");
}

TEST(FlagSetDeathTest, NanDoubleIsFatalNamingTheFlag)
{
    // A nan compares false against every bound: unchecked,
    // --fail-err-pct=nan switched the fig9/fig10 error gate off and
    // --rate=nan passed dvfsd_load's positivity check.
    FlagSet flags("prog", "test fixture");
    flags.add("fail-err-pct", "X", "").add("rate", "R", "");
    Argv argv({"--fail-err-pct=nan", "--rate=NaN"});
    flags.parse(argv.argc(), argv.argv());
    EXPECT_EXIT((void)flags.getDouble("fail-err-pct", 0.0, 0.0, 100.0),
                testing::ExitedWithCode(1),
                "--fail-err-pct: nan is out of range \\[0, 100\\]");
    EXPECT_EXIT((void)flags.getDouble("rate", 200.0, 1e-3, 1e6),
                testing::ExitedWithCode(1),
                "--rate: NaN is out of range");
}

TEST(FlagSetDeathTest, InfiniteDoubleIsFatalNamingTheFlag)
{
    // Unchecked, fig8 --epsilon=inf made its slowdown bound always
    // pass, and dvfsd_load --rate=inf reached a double-to-size_t
    // conversion that overflows.
    FlagSet flags("prog", "test fixture");
    flags.add("epsilon", "X", "").add("fail-speedup", "X", "");
    Argv argv({"--epsilon=inf", "--fail-speedup=-infinity"});
    flags.parse(argv.argc(), argv.argv());
    EXPECT_EXIT((void)flags.getDouble(
                    "epsilon", 0.05, 0.0,
                    dvfs::bench::kAnyFinite),
                testing::ExitedWithCode(1),
                "--epsilon: inf is out of range");
    EXPECT_EXIT((void)flags.getDouble(
                    "fail-speedup", 0.0, 0.0,
                    dvfs::bench::kAnyFinite),
                testing::ExitedWithCode(1),
                "--fail-speedup: -infinity is out of range");
}

TEST(FlagSetDeathTest, OverflowingDoubleIsFatalNamingTheFlag)
{
    // strtod returns inf for 1e400 and flags the overflow only in
    // errno; an underflow to zero is just as unrepresentable.
    FlagSet flags("prog", "test fixture");
    flags.add("fail-p99-ms", "X", "").add("duration-s", "S", "");
    Argv argv({"--fail-p99-ms=1e400", "--duration-s=1e-400"});
    flags.parse(argv.argc(), argv.argv());
    EXPECT_EXIT((void)flags.getDouble(
                    "fail-p99-ms", 0.0, 0.0,
                    dvfs::bench::kAnyFinite),
                testing::ExitedWithCode(1),
                "--fail-p99-ms: 1e400 is out of range");
    EXPECT_EXIT((void)flags.getDouble("duration-s", 5.0, 0.0, 86400.0),
                testing::ExitedWithCode(1),
                "--duration-s: 1e-400 is out of range");
}

TEST(FlagSetDeathTest, DoubleOutsideRangeIsFatalNamingTheFlag)
{
    // Unchecked, dvfsd_load --duration-s=-1 reached the same
    // overflowing conversion as --rate=inf.
    FlagSet flags("prog", "test fixture");
    flags.add("duration-s", "S", "").add("rate", "R", "");
    Argv argv({"--duration-s=-1", "--rate=2e6"});
    flags.parse(argv.argc(), argv.argv());
    EXPECT_EXIT((void)flags.getDouble("duration-s", 5.0, 1e-3, 86400.0),
                testing::ExitedWithCode(1),
                "--duration-s: -1 is out of range \\[0.001, 86400\\]");
    EXPECT_EXIT((void)flags.getDouble("rate", 200.0, 1e-3, 1e6),
                testing::ExitedWithCode(1),
                "--rate: 2e6 is out of range \\[0.001, 1e\\+06\\]");
    // Both bounds are inclusive, and the default is not range-checked.
    Argv edges({"--duration-s=0.001", "--rate=1e6"});
    FlagSet ok("prog", "test fixture");
    ok.add("duration-s", "S", "").add("rate", "R", "");
    ok.parse(edges.argc(), edges.argv());
    EXPECT_EQ(ok.getDouble("duration-s", 5.0, 1e-3, 86400.0), 1e-3);
    EXPECT_EQ(ok.getDouble("rate", 200.0, 1e-3, 1e6), 1e6);
    FlagSet absent("prog", "test fixture");
    absent.add("rate", "R", "");
    EXPECT_EQ(absent.getDouble("rate", -1.0, 1e-3, 1e6), -1.0);
}

TEST(FlagSetDeathTest, NonFiniteDoubleListElementIsFatalNamingTheFlag)
{
    // fig6 --thresholds=0.05,nan ran a manager cell with a nan
    // Tolerable-Slowdown only to fatal() inside the sweep.
    FlagSet flags("prog", "test fixture");
    flags.add("thresholds", "CSV", "");
    Argv argv({"--thresholds=0.05,nan"});
    flags.parse(argv.argc(), argv.argv());
    EXPECT_EXIT((void)flags.getDoubleList(
                    "thresholds", {}, 0.0,
                    dvfs::bench::kAnyFinite),
                testing::ExitedWithCode(1),
                "--thresholds: nan is out of range");
}

TEST(FlagSetDeathTest, GateFlagsCannotSwitchTheirGateOff)
{
    // The fig9/fig10 gates are off at 0; a nan or inf bound must not
    // read as off, nor a negative one as on.
    for (const char *arg : {"--fail-err-pct=nan", "--fail-err-pct=inf",
                            "--fail-speedup=nan", "--fail-speedup=-1"}) {
        FlagSet flags("prog", "test fixture");
        flags.add("fail-err-pct", "X", "").add("fail-speedup", "X", "")
            .add("expect-fingerprint", "HEX", "");
        Argv argv({arg});
        flags.parse(argv.argc(), argv.argv());
        const std::string flag =
            std::string(arg).substr(0, std::string(arg).find('='));
        EXPECT_EXIT((void)dvfs::bench::gatesFromArgs(
                        flags, "expect-fingerprint"),
                    testing::ExitedWithCode(1),
                    flag + ": .* is out of range")
            << arg;
    }
}

TEST(FlagSetDeathTest, UnlistedChoiceIsFatalNamingTheFlag)
{
    // Unchecked, fig3 --dir=bogus simulated the whole grid, printed no
    // table and exited 0.
    FlagSet flags("prog", "test fixture");
    flags.add("dir", "up|down|both", "");
    Argv argv({"--dir=sideways"});
    flags.parse(argv.argc(), argv.argv());
    EXPECT_EXIT(
        (void)flags.getChoice("dir", "both", {"up", "down", "both"}),
        testing::ExitedWithCode(1),
        "--dir: unknown value 'sideways'");
}

TEST(FlagSetDeathTest, SamplingWindowsAreRangeChecked)
{
    // Unchecked, --detail-us=-5 wrapped through Tick and the sampled
    // run panicked with "event scheduled in the past".
    FlagSet flags("prog", "test fixture");
    flags.addSampling();
    Argv argv({"--detail-us=-5"});
    flags.parse(argv.argc(), argv.argv());
    EXPECT_EXIT((void)dvfs::bench::samplingFromArgs(flags),
                testing::ExitedWithCode(1),
                "--detail-us: -5 is out of range \\[1, ");

    FlagSet zero("prog", "test fixture");
    zero.addSampling();
    Argv argv0({"--detail-us=0"});
    zero.parse(argv0.argc(), argv0.argv());
    EXPECT_EXIT((void)dvfs::bench::samplingFromArgs(zero),
                testing::ExitedWithCode(1),
                "--detail-us: 0 is out of range");

    FlagSet huge("prog", "test fixture");
    huge.addSampling();
    Argv argv1({"--gap-us=20000000000000"});
    huge.parse(argv1.argc(), argv1.argv());
    EXPECT_EXIT((void)dvfs::bench::samplingFromArgs(huge),
                testing::ExitedWithCode(1),
                "--gap-us: 20000000000000 is out of range");
}

TEST(FlagSetDeathTest, HelpPrintsListingAndExitsCleanly)
{
    auto flags = sampleFlags();
    Argv argv({"--help"});
    EXPECT_EXIT(flags.parse(argv.argc(), argv.argv()),
                testing::ExitedWithCode(0), "");
}

TEST(FlagSetDeathTest, QueryingUndeclaredFlagIsAProgrammingError)
{
    auto flags = sampleFlags();
    Argv argv({"--count=1"});
    flags.parse(argv.argc(), argv.argv());
    EXPECT_DEATH((void)flags.get("undeclared"),
                 "queried undeclared flag --undeclared");
}

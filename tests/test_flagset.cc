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

#include <string>
#include <vector>

#include "../bench/bench_util.hh"

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
    EXPECT_DOUBLE_EQ(flags.getDouble("ratio", 1.0), 2.5);
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
    EXPECT_EXIT((void)flags.getDouble("ratio", 1.0),
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

/**
 * @file
 * Tests for the bench flag table (bench/common.hh): strict value
 * parsing, row checks, --help and the exit-2 usage-error path.
 */

#include <unistd.h>

#include <gtest/gtest.h>

#include "common.hh"
#include "sim/logging.hh"

namespace nimblock {
namespace bench {
namespace {

/** argv storage for one parse: "bench" followed by @p args. */
struct Argv
{
    explicit Argv(std::vector<std::string> args) : strings(std::move(args))
    {
        strings.insert(strings.begin(), "bench");
    }
    int argc() const { return static_cast<int>(strings.size()); }
    char **
    argv()
    {
        ptrs.clear();
        for (std::string &s : strings)
            ptrs.push_back(s.data());
        return ptrs.data();
    }

    std::vector<std::string> strings;
    std::vector<char *> ptrs;
};

void
parse(std::vector<std::string> args, const std::vector<Flag> &flags)
{
    Argv a(std::move(args));
    parseFlags(a.argc(), a.argv(), flags);
}

/** One field of every value type, with the rows the benches use. */
struct Fields
{
    int count = 5;
    std::uint64_t seed = 2023;
    std::size_t boards = 4;
    double rate = 0;
    double duration = 10;
    std::string path = "out.json";
    std::string app;
    std::string mode = "fast";
    bool on = false;

    std::vector<Flag>
    flags()
    {
        return {
            {"--count", &count, "count", 2},
            {"--seed", &seed, "seed"},
            {"--boards", &boards, "boards", 1},
            {"--rate", &rate, "rate"},
            {"--duration", &duration, "duration", kPositive},
            {"--json", &path, "results file"},
            {"--app", &app, "app", {"alpha", "beta"}},
            {"--mode", &mode, "mode", {"fast", "slow"}},
            {"--on", [this] { on = true; }, "switch"},
            {"--preset",
             [this] {
                 count = 3;
                 rate = 1.5;
             },
             "preset"},
        };
    }
};

TEST(BenchCli, StoresParsedValues)
{
    Fields f;
    parse({"--count", "9", "--seed", "18446744073709551615", "--boards", "12",
           "--rate", "2.5e3", "--duration", "0.25", "--json", "x.json",
           "--app", "beta", "--mode", "slow", "--on"},
          f.flags());
    EXPECT_EQ(f.count, 9);
    EXPECT_EQ(f.seed, 18446744073709551615ull);
    EXPECT_EQ(f.boards, 12u);
    EXPECT_DOUBLE_EQ(f.rate, 2500.0);
    EXPECT_DOUBLE_EQ(f.duration, 0.25);
    EXPECT_EQ(f.path, "x.json");
    EXPECT_EQ(f.app, "beta");
    EXPECT_EQ(f.mode, "slow");
    EXPECT_TRUE(f.on);
}

TEST(BenchCli, IntsParseStrictly)
{
    for (const char *bad : {"12x", "1.9e3", "", " 3", "+3", "0x10", "abc",
                            "99999999999"}) {
        Fields f;
        EXPECT_THROW(parse({"--count", bad}, f.flags()), FatalError) << bad;
        EXPECT_EQ(f.count, 5) << bad;
    }
}

TEST(BenchCli, UnsignedRowsRejectNegatives)
{
    for (const char *bad : {"-1", "abc", "1x", "18446744073709551616"}) {
        Fields f;
        EXPECT_THROW(parse({"--seed", bad}, f.flags()), FatalError) << bad;
        EXPECT_EQ(f.seed, 2023u) << bad;
    }
    // bench_soak's --boards: -1 must not wrap around past the >= 1 bound.
    Fields f;
    EXPECT_THROW(parse({"--boards", "-1"}, f.flags()), FatalError);
    EXPECT_THROW(parse({"--boards", "0"}, f.flags()), FatalError);
    EXPECT_EQ(f.boards, 4u);
}

TEST(BenchCli, DoublesParseStrictly)
{
    for (const char *bad : {"1.5x", "", "nan", "inf", "-inf", "1e999", "."}) {
        Fields f;
        EXPECT_THROW(parse({"--rate", bad}, f.flags()), FatalError) << bad;
    }
    Fields f;
    parse({"--rate", "-2"}, f.flags());
    EXPECT_DOUBLE_EQ(f.rate, -2.0) << "an unbounded row takes any number";
}

TEST(BenchCli, LowerBoundsAreInclusive)
{
    Fields f;
    parse({"--count", "2", "--boards", "1"}, f.flags());
    EXPECT_EQ(f.count, 2);
    EXPECT_EQ(f.boards, 1u);
    EXPECT_THROW(parse({"--count", "1"}, f.flags()), FatalError);

    parse({"--duration", "1e-300"}, f.flags());
    EXPECT_DOUBLE_EQ(f.duration, 1e-300);
    EXPECT_THROW(parse({"--duration", "0"}, f.flags()), FatalError);
    EXPECT_THROW(parse({"--duration", "-1"}, f.flags()), FatalError);
}

TEST(BenchCli, NameSetsAdmitOnlyTheirNames)
{
    Fields f;
    EXPECT_THROW(parse({"--app", "gamma"}, f.flags()), FatalError);
    EXPECT_THROW(parse({"--mode", "Slow"}, f.flags()), FatalError);
    EXPECT_TRUE(f.app.empty());
    EXPECT_EQ(f.mode, "fast");
    parse({"--mode", "slow"}, f.flags());
    EXPECT_EQ(f.mode, "slow");
}

TEST(BenchCli, MissingValuesAndUnknownFlagsThrow)
{
    Fields f;
    EXPECT_THROW(parse({"--count"}, f.flags()), FatalError);
    EXPECT_THROW(parse({"--json"}, f.flags()), FatalError);
    EXPECT_THROW(parse({"--no-such-flag"}, f.flags()), FatalError);
    EXPECT_THROW(parse({"count", "3"}, f.flags()), FatalError);
    EXPECT_THROW(parse({"--on", "1"}, f.flags()), FatalError)
        << "a switch takes no value";
}

TEST(BenchCli, LaterFlagsOverridePresets)
{
    Fields before;
    parse({"--count", "9", "--preset"}, before.flags());
    EXPECT_EQ(before.count, 3);
    Fields after;
    parse({"--preset", "--count", "9"}, after.flags());
    EXPECT_EQ(after.count, 9);
    EXPECT_DOUBLE_EQ(after.rate, 1.5);
}

TEST(BenchCli, BenchOptionsRejectsMalformedValues)
{
    for (std::vector<std::string> args :
         std::vector<std::vector<std::string>>{{"--seed", "abc"},
                                               {"--seed", "-1"},
                                               {"--jobs", "1x"},
                                               {"--jobs", "0"},
                                               {"--events", "1.9e3"},
                                               {"--sched", "nosuch"},
                                               {"--dispatch", "nosuch"}}) {
        Argv a(args);
        EXPECT_THROW(BenchOptions::parse(a.argc(), a.argv()), FatalError)
            << args[0] << " " << args[1];
    }
}

TEST(BenchCli, HelpListsEveryRowWithItsDefault)
{
    BenchOptions opts;
    std::vector<Flag> flags = opts.flags();
    std::string help = helpText("bench", flags);
    for (const Flag &row : flags)
        EXPECT_NE(help.find(row.name), std::string::npos) << row.name;
    EXPECT_NE(help.find("default 2023"), std::string::npos) << help;
    EXPECT_NE(help.find("--help"), std::string::npos);

    Fields f;
    help = helpText("bench", f.flags());
    EXPECT_NE(help.find("fast|slow, default fast"), std::string::npos)
        << help;
    EXPECT_NE(help.find("> 0, default 10"), std::string::npos) << help;
    EXPECT_NE(help.find("default out.json"), std::string::npos) << help;
}

TEST(BenchCliDeathTest, HelpPrintsDefaultsAndExitsZero)
{
    Fields f;
    Argv a({"--count", "9", "--help"});
    // Send the help text to stderr, where the matcher reads: it shows the
    // default, not the value an earlier flag set.
    EXPECT_EXIT(
        {
            dup2(STDERR_FILENO, STDOUT_FILENO);
            parseFlags(a.argc(), a.argv(), f.flags());
        },
        ::testing::ExitedWithCode(0),
        "--count N +count \\[>= 2, default 5\\]");
    Argv h({"-h"});
    EXPECT_EXIT(BenchOptions::parseOrExit(h.argc(), h.argv()),
                ::testing::ExitedWithCode(0), "");
}

TEST(BenchCliDeathTest, UsageErrorsExitTwoWithOneLine)
{
    for (std::vector<std::string> args :
         std::vector<std::vector<std::string>>{{"--no-such-flag"},
                                               {"--seed", "abc"},
                                               {"--count"}}) {
        Fields f;
        Argv a(args);
        EXPECT_EXIT(parseFlagsOrExit(a.argc(), a.argv(), f.flags()),
                    ::testing::ExitedWithCode(2), "^bench: [^\n]*\n$")
            << args[0];
    }
}

} // namespace
} // namespace bench
} // namespace nimblock

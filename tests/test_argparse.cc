/**
 * @file
 * Unit tests for the command-line argument parser used by the tools.
 */

#include <gtest/gtest.h>

#include <vector>

#include "base/argparse.hh"

namespace cbws
{
namespace
{

bool
parseWith(ArgParser &parser, std::vector<const char *> args)
{
    args.insert(args.begin(), "prog");
    return parser.parse(static_cast<int>(args.size()),
                        const_cast<char **>(args.data()));
}

TEST(ArgParser, DefaultsApply)
{
    ArgParser p("prog", "test");
    p.addOption("workload", "w", "stencil-default");
    p.addOption("insts", "n", "1000");
    EXPECT_TRUE(parseWith(p, {}));
    EXPECT_EQ(p.get("workload"), "stencil-default");
    EXPECT_EQ(p.getUint("insts"), 1000u);
    EXPECT_FALSE(p.provided("workload"));
}

TEST(ArgParser, SpaceSeparatedValues)
{
    ArgParser p("prog", "test");
    p.addOption("workload", "w", "a");
    EXPECT_TRUE(parseWith(p, {"--workload", "nw"}));
    EXPECT_EQ(p.get("workload"), "nw");
    EXPECT_TRUE(p.provided("workload"));
}

TEST(ArgParser, EqualsSeparatedValues)
{
    ArgParser p("prog", "test");
    p.addOption("insts", "n", "0");
    EXPECT_TRUE(parseWith(p, {"--insts=5000"}));
    EXPECT_EQ(p.getUint("insts"), 5000u);
}

TEST(ArgParser, Flags)
{
    ArgParser p("prog", "test");
    p.addFlag("csv", "c");
    EXPECT_TRUE(parseWith(p, {"--csv"}));
    EXPECT_TRUE(p.getFlag("csv"));

    ArgParser q("prog", "test");
    q.addFlag("csv", "c");
    EXPECT_TRUE(parseWith(q, {}));
    EXPECT_FALSE(q.getFlag("csv"));
}

TEST(ArgParser, FlagRejectsValue)
{
    ArgParser p("prog", "test");
    p.addFlag("csv", "c");
    EXPECT_FALSE(parseWith(p, {"--csv=yes"}));
}

TEST(ArgParser, UnknownOptionRejected)
{
    ArgParser p("prog", "test");
    EXPECT_FALSE(parseWith(p, {"--nope"}));
}

TEST(ArgParser, MissingValueRejected)
{
    ArgParser p("prog", "test");
    p.addOption("insts", "n", "0");
    EXPECT_FALSE(parseWith(p, {"--insts"}));
}

TEST(ArgParser, Positionals)
{
    ArgParser p("prog", "test");
    p.addOption("x", "x", "");
    EXPECT_TRUE(parseWith(p, {"alpha", "--x", "1", "beta"}));
    ASSERT_EQ(p.positionals().size(), 2u);
    EXPECT_EQ(p.positionals()[0], "alpha");
    EXPECT_EQ(p.positionals()[1], "beta");
}

TEST(ArgParser, BadUintFallsBack)
{
    ArgParser p("prog", "test");
    p.addOption("insts", "n", "abc");
    EXPECT_TRUE(parseWith(p, {}));
    EXPECT_EQ(p.getUint("insts", 77), 77u);
}

/** Parse `--insts=<value>` and read it back; a bad value must exit. */
void
readInsts(const char *arg)
{
    ArgParser p("prog", "test");
    p.addOption("insts", "n", "1000");
    if (parseWith(p, {arg}))
        p.getUint("insts", 77);
}

TEST(ArgParser, MalformedUserUintIsFatal)
{
    // A suffix, a sign, an empty value and an overflow each exit
    // naming the option instead of falling back or wrapping.
    EXPECT_EXIT(readInsts("--insts=20k"), testing::ExitedWithCode(1),
                "--insts.*'20k'");
    EXPECT_EXIT(readInsts("--insts=-1"), testing::ExitedWithCode(1),
                "--insts.*'-1'");
    EXPECT_EXIT(readInsts("--insts="), testing::ExitedWithCode(1),
                "--insts.*''");
    EXPECT_EXIT(readInsts("--insts=99999999999999999999"),
                testing::ExitedWithCode(1),
                "--insts.*'99999999999999999999'");
}

TEST(ArgParser, UserUintLargestValueAccepted)
{
    ArgParser p("prog", "test");
    p.addOption("insts", "n", "0");
    EXPECT_TRUE(parseWith(p, {"--insts=18446744073709551615"}));
    EXPECT_EQ(p.getUint("insts"), ~std::uint64_t(0));
}

TEST(ArgParser, HelpGenerated)
{
    ArgParser p("prog", "my description");
    p.addOption("workload", "which benchmark", "nw");
    p.addFlag("csv", "csv output");
    const std::string usage = p.usage();
    EXPECT_NE(usage.find("my description"), std::string::npos);
    EXPECT_NE(usage.find("--workload"), std::string::npos);
    EXPECT_NE(usage.find("default: nw"), std::string::npos);
    EXPECT_NE(usage.find("--csv"), std::string::npos);

    EXPECT_TRUE(parseWith(p, {"--help"}));
    EXPECT_TRUE(p.helpRequested());
}

} // anonymous namespace
} // namespace cbws

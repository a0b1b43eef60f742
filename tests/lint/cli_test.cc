// Command-line contracts of g5r-lint and g5r-netlistc: numeric options are
// parsed whole and range-checked, and both tools share one builtin-design
// parser (rtl::builtinDesign). Bad values exit 2.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "rtl/netlist.hh"

#if !defined(G5R_LINT_BIN) || !defined(G5R_NETLISTC_BIN)
#error "tests must be compiled with -DG5R_LINT_BIN and -DG5R_NETLISTC_BIN"
#endif

namespace g5r::rtl {
namespace {

/// Exit status of @p binary run with @p args (output discarded).
int exitCode(const std::string& binary, const std::string& args) {
    const int status = std::system((binary + ' ' + args + " >/dev/null 2>&1").c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int lint(const std::string& args) { return exitCode(G5R_LINT_BIN, args); }
int netlistc(const std::string& args) { return exitCode(G5R_NETLISTC_BIN, args); }

TEST(LintCli, MaxLevelIsParsedWholeAndRangeChecked) {
    EXPECT_EQ(lint("--max-level 12 --builtin bitonic:8"), 0);
    EXPECT_EQ(lint("--max-level 12abc --builtin bitonic:8"), 2);
    EXPECT_EQ(lint("--max-level -1 --builtin bitonic:8"), 2);
    EXPECT_EQ(lint("--max-level '' --builtin bitonic:8"), 2);
    EXPECT_EQ(lint("--max-level 4294967296 --builtin bitonic:8"), 2);
}

TEST(LintCli, BuiltinSpecsAreValidated) {
    EXPECT_EQ(lint("--builtin bitonic"), 0);
    EXPECT_EQ(lint("--builtin bitonic:4"), 0);
    EXPECT_EQ(lint("--builtin bitonic:4abc"), 2);
    EXPECT_EQ(lint("--builtin bitonic:-1"), 2);
    EXPECT_EQ(lint("--builtin bitonic:6"), 2);  // Not a power of two.
    EXPECT_EQ(lint("--builtin quicksort:8"), 2);
}

TEST(NetlistcCli, LatencyAndBuiltinAreValidated) {
    const std::string out = ::testing::TempDir() + "/cli_bitonic4.cc";
    EXPECT_EQ(netlistc("--builtin bitonic:4 --latency 5 --emit-only " + out), 0);
    EXPECT_EQ(netlistc("--builtin bitonic:4 --latency 5x --emit-only " + out), 2);
    EXPECT_EQ(netlistc("--builtin bitonic:4 --latency -1 --emit-only " + out), 2);
    EXPECT_EQ(netlistc("--builtin bitonic:4x --emit-only " + out), 2);
    std::remove(out.c_str());
}

TEST(BuiltinDesign, ParsesSpecsAndKeepsErrorMessages) {
    std::string error;
    const auto d8 = builtinDesign("bitonic", error);
    ASSERT_TRUE(d8.has_value()) << error;
    EXPECT_EQ(d8->label, "builtin:bitonic:8");
    EXPECT_EQ(d8->modelName, "bitonic_c8");
    EXPECT_EQ(d8->latency, 6u);
    EXPECT_EQ(d8->source, bitonicSorterNetlist(8));

    const auto d16 = builtinDesign("bitonic:16", error);
    ASSERT_TRUE(d16.has_value()) << error;
    EXPECT_EQ(d16->label, "builtin:bitonic:16");
    EXPECT_EQ(d16->latency, 10u);

    EXPECT_FALSE(builtinDesign("bitonic:8x", error).has_value());
    EXPECT_EQ(error, "bad builtin size in 'bitonic:8x'");
    EXPECT_FALSE(builtinDesign("bitonic:", error).has_value());
    EXPECT_EQ(error, "bad builtin size in 'bitonic:'");
    EXPECT_FALSE(builtinDesign("fft:8", error).has_value());
    EXPECT_EQ(error, "unknown builtin 'fft' (available: bitonic)");
    EXPECT_FALSE(builtinDesign("bitonic:6", error).has_value());
    EXPECT_EQ(error, "bitonic sorter size must be a power of two");
}

TEST(BuiltinDesign, BitonicStagesFollowTheNetworkDepth) {
    EXPECT_EQ(bitonicStages(1), 0u);
    EXPECT_EQ(bitonicStages(2), 1u);
    EXPECT_EQ(bitonicStages(4), 3u);
    EXPECT_EQ(bitonicStages(8), 6u);
    EXPECT_EQ(bitonicStages(64), 21u);
}

}  // namespace
}  // namespace g5r::rtl

// Command-line contracts of g5r lint and g5r netlistc: numeric options are
// parsed whole and range-checked, both subcommands share one builtin-design
// parser (rtl::builtinDesign) and one input-file reader (as does g5r diff),
// and the front end owns the exit contract. Bad values exit 2.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "rtl/netlist.hh"

#ifndef G5R_BIN
#error "tests must be compiled with -DG5R_BIN"
#endif

namespace g5r::rtl {
namespace {

/// Exit status of `g5r <args>` (output discarded).
int g5r(const std::string& args) {
    const int status =
        std::system((std::string{G5R_BIN} + ' ' + args + " >/dev/null 2>&1").c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// What `g5r <args>` writes to stderr.
std::string g5rStderr(const std::string& args) {
    std::string err;
    FILE* pipe = ::popen((std::string{G5R_BIN} + ' ' + args + " 2>&1 >/dev/null").c_str(), "r");
    if (pipe == nullptr) return err;
    char buf[256];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) err += buf;
    ::pclose(pipe);
    return err;
}

int lint(const std::string& args) { return g5r("lint " + args); }
int netlistc(const std::string& args) { return g5r("netlistc " + args); }

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

TEST(NetlistcCli, RejectsADirectoryInputAndWritesNothing) {
    const std::string dir = ::testing::TempDir() + "/cli_netlistc_dir";
    const std::string out = ::testing::TempDir() + "/cli_dir_model.cc";
    std::filesystem::create_directories(dir);
    std::filesystem::remove(out);
    EXPECT_EQ(netlistc(dir + " --emit-only " + out), 2);
    EXPECT_FALSE(std::filesystem::exists(out));
    EXPECT_EQ(lint(dir), 2);
    std::filesystem::remove(dir);
}

TEST(DiffCli, RejectsADirectoryInput) {
    // Reported as what it is, not as an empty recording.
    const std::string dir = ::testing::TempDir() + "/cli_diff_dir";
    std::filesystem::create_directories(dir);
    EXPECT_EQ(g5r("diff " + dir + ' ' + dir), 2);
    EXPECT_EQ(g5r("diff --json " + dir + ' ' + dir), 2);
    const std::string err = g5rStderr("diff " + dir + ' ' + dir);
    EXPECT_NE(err.find("g5r diff: not a regular file: " + dir), std::string::npos) << err;
    std::filesystem::remove(dir);
}

// The device wrapper's output window ends below its control block
// (rtl/device_regmap.hh): 64 outputs fit, 65 would overlap it.
TEST(NetlistcCli, RejectsDesignsOverflowingTheRegisterWindows) {
    const auto wide = [](int outputs) {
        const std::string path =
            ::testing::TempDir() + "/cli_wide" + std::to_string(outputs) + ".nl";
        std::ofstream nl{path};
        nl << "input a\n";
        for (int i = 0; i < outputs; ++i) nl << "output o" << i << " a\n";
        return path;
    };
    const std::string fits = wide(64), overflows = wide(65);
    const std::string out = ::testing::TempDir() + "/cli_wide.cc";
    EXPECT_EQ(netlistc(fits + " --emit-only " + out), 0);
    EXPECT_EQ(netlistc(overflows + " --emit-only " + out), 1);
    EXPECT_EQ(netlistc("--builtin bitonic:64 --emit-only " + out), 0);
    for (const std::string& p : {fits, overflows, out}) std::remove(p.c_str());
}

TEST(G5rCli, OneExitContractAcrossSubcommands) {
    for (const char* sub : {"lint", "netlistc", "diff", "stats", "critpath"}) {
        SCOPED_TRACE(sub);
        EXPECT_EQ(g5r(std::string{sub} + " --help"), 0);
        EXPECT_EQ(g5r(std::string{sub} + " -h"), 0);
        EXPECT_EQ(g5r(std::string{sub} + " --bogus"), 2);
    }
    EXPECT_EQ(g5r("--help"), 0);
    EXPECT_EQ(g5r(""), 2);
    EXPECT_EQ(g5r("frobnicate"), 2);
    EXPECT_EQ(g5r("stats diff --help"), 0);
    // A value-taking option with no value, a value given to a flag.
    EXPECT_EQ(lint("--builtin bitonic:8 --max-level"), 2);
    EXPECT_EQ(lint("--json=1 --builtin bitonic:8"), 2);
    // --opt=value and --opt value are the same.
    EXPECT_EQ(lint("--max-level=12 --builtin=bitonic:8"), 0);
    EXPECT_EQ(lint("--max-level=12abc --builtin bitonic:8"), 2);
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

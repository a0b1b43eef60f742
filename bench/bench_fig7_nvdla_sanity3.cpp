// Figure 7 — "Design-space exploration using the Sanity3 benchmark.
// Normalized to an ideal 1-cycle main memory." Same layout as Figure 6 with
// the memory-intensive sanity3 convolution, which stresses every memory
// technology much harder.
//
// GEM5RTL_FULL=1 doubles the convolution's spatial dimensions.
// --jobs N (or GEM5RTL_JOBS) fans the sweep points out over N worker
// threads; the panels are bit-identical to a --jobs 1 run.
#include "nvdla_dse_common.hh"

using namespace g5r;

int main(int argc, char** argv) {
    const unsigned jobs = exp::parseJobsFlag(argc, argv);
    const unsigned scale = experiments::fullScaleRequested() ? 2 : 1;
    const auto shape = models::sanity3Shape(scale);
    const auto results = bench::runDseSweep(shape, "sanity3", bench::accelSweep(), jobs);
    const int failures = bench::printAndCheckDse(results, "Figure 7", "Sanity3");

    // Sanity3-specific claims from the paper's text.
    int extra = 0;
    auto check = [&](bool ok, const char* what) {
        std::printf("[%s] %s\n", ok ? "PASS" : "WARN", what);
        if (!ok) ++extra;
    };
    auto at = [&](unsigned n, MemTech tech, unsigned inflight) {
        return results.panels.at(n).at(tech).at(inflight).normalized;
    };
    // "The performance drops significantly with DDR4-1ch" (one instance).
    check(at(1, MemTech::kDdr4_1ch, 240) < 0.7,
          "(a) DDR4-1ch drops significantly even with one instance");
    // "Even the DDR4-2ch and DDR4-4ch setups fail to deliver comparable
    //  performance with respect to GDDR5 and HBM for 16 and 32 in-flight".
    check(at(1, MemTech::kDdr4_2ch, 32) < at(1, MemTech::kGddr5, 32),
          "(a) DDR4-2ch behind GDDR5 at 32 in-flight requests");
    // "In the case of Sanity3, even with DDR4-4ch there is a noticeable
    //  performance degradation with respect to GDDR5 and HBM" (2 instances).
    check(at(2, MemTech::kDdr4_4ch, 240) < at(2, MemTech::kHbm, 240) - 0.05,
          "(b) DDR4-4ch noticeably behind HBM with two instances");
    // "Even the GDDR5 and HBM technologies see a performance drop with
    //  respect to the 2 NVDLA accelerators" (4 instances).
    check(at(4, MemTech::kHbm, 240) < at(2, MemTech::kHbm, 240),
          "(c) even HBM degrades going from 2 to 4 instances");
    const bool wrote =
        bench::writeDseBenchJson(results, "fig7", "BENCH_fig7.json", "Sanity3");
    return failures + extra == 0 && wrote ? 0 : 2;
}

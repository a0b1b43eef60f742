// Figure 6 — "Design-space exploration using the GoogleNet benchmark.
// Normalized to an ideal 1-cycle main memory." Panels (a)/(b)/(c): 1/2/4
// NVDLA accelerators; series: DDR4-1/2/4ch, GDDR5, HBM; x-axis: maximum
// permitted in-flight memory requests.
//
// GEM5RTL_FULL=1 doubles the convolution's spatial dimensions.
// --jobs N (or GEM5RTL_JOBS) fans the sweep points out over N worker
// threads; the panels are bit-identical to a --jobs 1 run.
#include "nvdla_dse_common.hh"

using namespace g5r;

int main(int argc, char** argv) {
    const unsigned jobs = exp::parseJobsFlag(argc, argv);
    const unsigned scale = experiments::fullScaleRequested() ? 2 : 1;
    const auto shape = models::googlenetConv2Shape(scale);
    const auto results = bench::runDseSweep(shape, "googlenet", bench::accelSweep(), jobs);
    const int failures = bench::printAndCheckDse(results, "Figure 6", "GoogleNet conv2");

    // GoogleNet-specific claims from the paper's text.
    int extra = 0;
    auto check = [&](bool ok, const char* what) {
        std::printf("[%s] %s\n", ok ? "PASS" : "WARN", what);
        if (!ok) ++extra;
    };
    auto at = [&](unsigned n, MemTech tech, unsigned inflight) {
        return results.panels.at(n).at(tech).at(inflight).normalized;
    };
    // "When employing one NVDLA accelerator all memory technologies perform
    //  similarly ... the only exception is DDR4-1ch, which falls a bit behind."
    check(at(1, MemTech::kGddr5, 240) > 0.9 && at(1, MemTech::kHbm, 240) > 0.9 &&
              at(1, MemTech::kDdr4_4ch, 240) > 0.9,
          "(a) all high-bandwidth technologies near 1.0 with one instance");
    check(at(1, MemTech::kDdr4_1ch, 240) < at(1, MemTech::kHbm, 240),
          "(a) DDR4-1ch falls behind with one instance");
    // "The GoogleNet benchmark requires at least DDR4-4ch to attain the same
    //  performance as the high-bandwidth memory configurations" (2 NVDLAs).
    check(at(2, MemTech::kDdr4_4ch, 240) > at(2, MemTech::kDdr4_2ch, 240),
          "(b) DDR4-4ch needed: 2ch is measurably worse with two instances");
    const bool wrote =
        bench::writeDseBenchJson(results, "fig6", "BENCH_fig6.json", "GoogleNet conv2");
    return failures + extra == 0 && wrote ? 0 : 2;
}

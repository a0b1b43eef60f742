// Memory-path comparison demo: run one fig. 7 design point (1 NVDLA,
// DDR4-1ch, a starved 1-request in-flight window) over both memory paths —
// the direct DBBIF connection and the DMA + scratchpad staging path — and
// print the crossover. Writes BENCH_dma_spm.json with both points.
//
// CI runs this as the memory-path smoke: the binary exits non-zero unless
// both runs complete with verified checksums AND the staged path is faster
// at this starved queue depth (the configuration the SPM exists for).
#include <cstdio>

#include "exp/bench_report.hh"
#include "soc/experiments.hh"

using namespace g5r;

int main() {
    experiments::DseRunConfig cfg;
    cfg.shape = models::sanity3Shape();
    cfg.workloadName = "sanity3";
    cfg.memTech = MemTech::kDdr4_1ch;
    cfg.numAccelerators = 1;
    cfg.maxInflight = 1;  // Starved: every DBBIF request pays full DRAM latency.
    cfg.numCores = 0;

    cfg.memPath = MemPath::kDirect;
    const auto direct = experiments::runNvdlaDse(cfg);
    cfg.memPath = MemPath::kDmaSpm;
    const auto staged = experiments::runNvdlaDse(cfg);

    std::printf("fig7 point: 1x NVDLA, DDR4-1ch, 1 in-flight request\n");
    const auto show = [](const char* name, const experiments::DseRunResult& r) {
        std::printf("  %-8s completed=%d checksumOk=%d runtimeTicks=%llu\n", name,
                    r.completed, r.checksumsOk,
                    static_cast<unsigned long long>(r.runtimeTicks));
    };
    show("direct", direct);
    show("dmaSpm", staged);
    if (staged.dmaDescriptors > 0) {
        std::printf("  dmaSpm   descriptors=%llu spmReadHits=%.0f spmReadMisses=%.0f\n",
                    static_cast<unsigned long long>(staged.dmaDescriptors),
                    staged.spmReadHits, staged.spmReadMisses);
    }

    exp::Json doc = exp::benchDocument("dma_spm_compare", 1);
    doc["workload"] = "Sanity3";
    const auto addPoint = [&doc](const char* memPath,
                                 const experiments::DseRunResult& r) {
        exp::Json entry = exp::Json::object();
        entry["accelerators"] = 1u;
        entry["memTech"] = "DDR4-1ch";
        entry["memPath"] = memPath;
        entry["maxInflight"] = 1u;
        entry["runtimeTicks"] = r.runtimeTicks;
        entry["checksumOk"] = r.completed && r.checksumsOk;
        doc["points"].push(std::move(entry));
    };
    addPoint("direct", direct);
    addPoint("dmaSpm", staged);
    const std::string path = exp::writeBenchJson("BENCH_dma_spm.json", doc);
    if (path.empty()) return 1;
    std::printf("# wrote %s\n", path.c_str());

    const bool ok = direct.completed && direct.checksumsOk && staged.completed &&
                    staged.checksumsOk && staged.runtimeTicks < direct.runtimeTicks;
    std::printf("[%s] DMA+SPM staging beats the direct path when starved\n",
                ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}

// Full-SoC integration: the Table 1 system boots, runs programs through the
// complete hierarchy, hosts RTL models, and the canned experiments produce
// paper-shaped results at single points.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "obs/profiler.hh"
#include "soc/experiments.hh"
#include "soc/model_loader.hh"
#include "soc/soc.hh"

namespace g5r {
namespace {

TEST(Soc, IdleCoresHaltImmediately) {
    Simulation sim;
    SocConfig cfg = table1Config();
    cfg.numCores = 2;
    Soc soc{sim, cfg};
    // No program loaded: the run drains when both cores hit their HALT.
    sim.run(10'000'000);
    EXPECT_TRUE(soc.core(0).halted());
    EXPECT_TRUE(soc.core(1).halted());
    EXPECT_EQ(soc.runningCores(), 0u);
}

TEST(Soc, ProgramRunsThroughTheFullHierarchy) {
    Simulation sim;
    SocConfig cfg = table1Config();
    cfg.numCores = 2;
    Soc soc{sim, cfg};

    const auto prog = isa::assemble(R"(
          li t0, 0x100000
          li t1, 0
          li t2, 512
        fill:
          slli t3, t1, 3
          add t3, t0, t3
          sd t1, 0(t3)
          addi t1, t1, 1
          blt t1, t2, fill
          li t1, 0
          li a0, 0
        sum:
          slli t3, t1, 3
          add t3, t0, t3
          ld t4, 0(t3)
          add a0, a0, t4
          addi t1, t1, 1
          blt t1, t2, sum
          li a7, 0
          ecall
          halt
    )");
    soc.loadProgram(0, prog);
    const RunResult result = sim.run(100'000'000'000ULL);
    EXPECT_EQ(result.cause, ExitCause::kSimExit);
    EXPECT_EQ(soc.core(0).archReg(10), 511u * 512u / 2u);
    // Traffic flowed through every level.
    EXPECT_GT(sim.findStat("system.cpu0.l1d.misses")->value(), 0.0);
    EXPECT_GT(sim.findStat("system.cpu0.l2.demandAccesses")->value(), 0.0);
    EXPECT_GT(sim.findStat("system.llc0.demandAccesses")->value(), 0.0);
    EXPECT_GT(sim.findStat("system.mem0.numReads")->value(), 0.0);
}

TEST(Soc, LlcBanksAreAllStriped) {
    Simulation sim;
    SocConfig cfg = table1Config();
    cfg.numCores = 1;
    Soc soc{sim, cfg};

    // Touch 64 consecutive lines: with 8 banks striped on bits [6,9),
    // every bank sees exactly 8 of them.
    const auto prog = isa::assemble(R"(
          li t0, 0x200000
          li t1, 0
          li t2, 64
        loop:
          slli t3, t1, 6
          add t3, t0, t3
          ld t4, 0(t3)
          addi t1, t1, 1
          blt t1, t2, loop
          li a7, 0
          ecall
          halt
    )");
    soc.loadProgram(0, prog);
    sim.run(100'000'000'000ULL);
    for (unsigned b = 0; b < 8; ++b) {
        EXPECT_GE(sim.findStat("system.llc" + std::to_string(b) + ".demandAccesses")->value(),
                  8.0)
            << "bank " << b;
    }
}

TEST(Soc, DeviceAccessesBypassTheCaches) {
    Simulation sim;
    SocConfig cfg = table1Config();
    cfg.numCores = 1;
    Soc soc{sim, cfg};
    RtlObjectParams rp;
    rp.clockPeriod = cfg.rtlClock;
    soc.attachRtlModel("pmu", loadRtlModel("pmu"), rp, Soc::MemPorts::kNone, true);

    // Read the PMU ID register twice from the core; both reads must reach
    // the device (uncacheable), and the value is the PMU signature.
    const Addr idReg = soc.deviceBaseOf(0) + 0x128;
    const auto prog = isa::assemble(
        "  li t0, 0x" + [](Addr a) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%llx", static_cast<unsigned long long>(a));
            return std::string{buf};
        }(idReg) + R"(
          ld a0, 0(t0)
          ld a1, 0(t0)
          li a7, 0
          ecall
          halt
    )");
    soc.loadProgram(0, prog);
    sim.run(100'000'000'000ULL);
    EXPECT_EQ(soc.core(0).archReg(10), 0x504D5501u);
    EXPECT_EQ(soc.core(0).archReg(11), 0x504D5501u);
    EXPECT_GE(sim.findStat("system.pmu.devReads")->value(), 2.0);
    EXPECT_FALSE(soc.l1d(0).isCached(idReg));
}

// ------------------------------------------------------ canned experiments --

TEST(Experiments, PmuSortRunMatchesGem5Statistics) {
    experiments::PmuRunConfig cfg;
    cfg.layout.baseElems = 60;           // Tiny for test speed.
    cfg.layout.sleepNs = 20'000;         // 20 us sleeps.
    cfg.intervalCycles = 10'000;
    cfg.numCores = 1;
    const auto result = experiments::runPmuSortExperiment(cfg);
    ASSERT_TRUE(result.completed);
    ASSERT_GE(result.intervals.size(), 10u);

    // Fig. 5's claim: both curves report the same IPC, with only the small
    // residual from the capture delay, the reset loss, and readout skew.
    EXPECT_LT(result.maxAbsIpcError, 0.25);
    double sumErr = 0;
    for (const auto& iv : result.intervals) sumErr += std::abs(iv.pmuIpc - iv.gem5Ipc);
    EXPECT_LT(sumErr / result.intervals.size(), 0.05);

    // The sleep phases show up as (near-)zero-IPC intervals on both curves.
    int idleIntervals = 0;
    for (const auto& iv : result.intervals) {
        if (iv.pmuIpc < 0.02 && iv.gem5Ipc < 0.02) ++idleIntervals;
    }
    EXPECT_GE(idleIntervals, 2);
}

TEST(Experiments, PmulessBaselineRunsToo) {
    experiments::PmuRunConfig cfg;
    cfg.layout.baseElems = 40;
    cfg.layout.sleepNs = 5'000;
    cfg.attachPmu = false;
    cfg.numCores = 1;
    const auto result = experiments::runPmuSortExperiment(cfg);
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(result.intervals.empty());
    EXPECT_GT(result.committedInsts, 10'000u);
}

// GEM5RTL_TRIGGER turns waveformPath from always-on VCD into a windowed
// capture routed through the model wrapper: the file appears only if the
// watchpoint fires during the run.
TEST(Experiments, TriggerEnvArmsWindowedCaptureOnThePmu) {
    const auto fileExists = [](const std::string& p) {
        return std::ifstream{p}.good();
    };
    experiments::PmuRunConfig cfg;
    cfg.layout.baseElems = 60;
    cfg.layout.sleepNs = 20'000;
    cfg.intervalCycles = 10'000;
    cfg.numCores = 1;

    // The PMU raises irq every intervalCycles, so a rising-edge watchpoint
    // fires and the windowed VCD is written.
    const std::string fired = ::testing::TempDir() + "/pmu_trigger_fired.vcd";
    cfg.waveformPath = fired;
    setenv("GEM5RTL_TRIGGER", "irq:rise@8,32", 1);
    const auto firedRun = experiments::runPmuSortExperiment(cfg);
    unsetenv("GEM5RTL_TRIGGER");
    ASSERT_TRUE(firedRun.completed);
    ASSERT_TRUE(fileExists(fired));
    std::ifstream in{fired};
    std::string vcd((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    EXPECT_NE(vcd.find("$enddefinitions"), std::string::npos);
    EXPECT_NE(vcd.find("irq"), std::string::npos);
    std::remove(fired.c_str());

    // A watchpoint that can never fire writes no file at all.
    const std::string quiet = ::testing::TempDir() + "/pmu_trigger_quiet.vcd";
    cfg.waveformPath = quiet;
    setenv("GEM5RTL_TRIGGER", "irq==0xdead", 1);
    const auto quietRun = experiments::runPmuSortExperiment(cfg);
    unsetenv("GEM5RTL_TRIGGER");
    ASSERT_TRUE(quietRun.completed);
    EXPECT_FALSE(fileExists(quiet));
}

// Every event in the SoC names its owning SimObject, so the host profile
// charges every dispatch to an object and "(unattributed)" stays empty —
// on both NVDLA memory paths and on the PMU run (OoO core and caches).
std::uint64_t unattributedDispatches(const obs::ProfileReport& report) {
    std::uint64_t attributed = 0;
    std::uint64_t unattributed = 0;
    for (const obs::ProfileEntry& e : report.entries) {
        attributed += e.dispatches;
        if (e.name == "(unattributed)") unattributed += e.dispatches;
    }
    EXPECT_EQ(attributed, report.dispatches);
    return unattributed;
}

bool hasEntry(const obs::ProfileReport& report, const std::string& name) {
    for (const obs::ProfileEntry& e : report.entries) {
        if (e.name == name) return e.dispatches > 0;
    }
    return false;
}

TEST(Experiments, EverySocDispatchIsChargedToItsOwner) {
    for (const MemPath path : {MemPath::kDirect, MemPath::kDmaSpm}) {
        SCOPED_TRACE(path == MemPath::kDirect ? "direct" : "dmaSpm");
        experiments::DseRunConfig cfg;
        cfg.shape.width = cfg.shape.height = 8;
        cfg.shape.inChannels = cfg.shape.outChannels = 16;
        cfg.shape.filterH = cfg.shape.filterW = 3;
        cfg.workloadName = "ownership";
        cfg.memTech = MemTech::kDdr4_1ch;
        cfg.memPath = path;
        cfg.maxInflight = 8;
        cfg.numAccelerators = 1;
        cfg.numCores = 0;
        cfg.obs.profileEnabled = true;
        const auto result = experiments::runNvdlaDse(cfg);
        ASSERT_TRUE(result.completed);
        ASSERT_NE(result.profile, nullptr);
        EXPECT_GT(result.profile->dispatches, 0u);
        EXPECT_EQ(unattributedDispatches(*result.profile), 0u);
        EXPECT_TRUE(hasEntry(*result.profile, "system.nvdla0"));
        if (path == MemPath::kDmaSpm) {
            EXPECT_TRUE(hasEntry(*result.profile, "system.nvdla0.dma"));
        }
    }

    experiments::PmuRunConfig cfg;
    cfg.layout.baseElems = 40;
    cfg.layout.sleepNs = 5'000;
    cfg.numCores = 1;
    cfg.obs.profileEnabled = true;
    const auto result = experiments::runPmuSortExperiment(cfg);
    ASSERT_TRUE(result.completed);
    ASSERT_NE(result.profile, nullptr);
    EXPECT_GT(result.profile->dispatches, 0u);
    EXPECT_EQ(unattributedDispatches(*result.profile), 0u);
    EXPECT_TRUE(hasEntry(*result.profile, "system.pmu"));
    EXPECT_TRUE(hasEntry(*result.profile, "system.pmu_observer"));
}

/// Every listed object dispatched and is charged to its listed layer.
void expectLayers(const obs::ProfileReport& report,
                  const std::map<std::string, HostLayer>& expected) {
    for (const auto& [name, layer] : expected) {
        const auto it = std::find_if(report.entries.begin(), report.entries.end(),
                                     [&name](const auto& e) { return e.name == name; });
        ASSERT_NE(it, report.entries.end()) << name;
        EXPECT_EQ(it->layer, layer) << name;
    }
}

// Profile buckets follow each component's type, not its name: on the dmaSpm
// path the DMA engine, scratchpad and staging bus live under
// "system.nvdla0." yet are memory-system time, so the rtl bucket holds the
// accelerator alone.
TEST(Experiments, ProfileBucketsFollowComponentTypes) {
    experiments::DseRunConfig dse;
    dse.shape.width = dse.shape.height = 8;
    dse.shape.inChannels = dse.shape.outChannels = 16;
    dse.shape.filterH = dse.shape.filterW = 3;
    dse.workloadName = "layers";
    dse.memTech = MemTech::kDdr4_1ch;
    dse.memPath = MemPath::kDmaSpm;
    dse.maxInflight = 8;
    dse.numAccelerators = 1;
    dse.numCores = 0;
    dse.obs.profileEnabled = true;
    const auto staged = experiments::runNvdlaDse(dse);
    ASSERT_TRUE(staged.completed);
    ASSERT_NE(staged.profile, nullptr);
    const obs::ProfileReport& report = *staged.profile;
    expectLayers(report, {{"system.nvdla0", HostLayer::kRtl},
                          {"system.nvdla0.dma", HostLayer::kMemory},
                          {"system.nvdla0.spm", HostLayer::kMemory},
                          {"system.host0", HostLayer::kCore}});
    double nvdlaSeconds = 0.0;
    for (const auto& e : report.entries) {
        if (e.name == "system.nvdla0") nvdlaSeconds = e.estimatedSeconds;
    }
    EXPECT_NEAR(report.buckets()[0].seconds, nvdlaSeconds, 1e-12);

    experiments::PmuRunConfig pmu;
    pmu.layout.baseElems = 40;
    pmu.layout.sleepNs = 5'000;
    pmu.numCores = 1;
    pmu.obs.profileEnabled = true;
    const auto sorted = experiments::runPmuSortExperiment(pmu);
    ASSERT_TRUE(sorted.completed);
    ASSERT_NE(sorted.profile, nullptr);
    expectLayers(*sorted.profile, {{"system.pmu", HostLayer::kRtl},
                                   {"system.pmu_observer", HostLayer::kCore},
                                   {"system.cpu0", HostLayer::kCore},
                                   {"system.cpu0.l1d", HostLayer::kMemory}});
}

TEST(Experiments, DsePointIdealBeatsNarrowDdr4) {
    models::NvdlaShape shape;
    shape.width = shape.height = 24;
    shape.inChannels = shape.outChannels = 64;
    shape.filterH = shape.filterW = 1;
    shape.refetch = 1;

    experiments::DseRunConfig ideal;
    ideal.memTech = MemTech::kIdeal;
    ideal.shape = shape;
    ideal.numCores = 0;
    ideal.maxInflight = 64;
    const auto idealResult = experiments::runNvdlaDse(ideal);
    ASSERT_TRUE(idealResult.completed);
    ASSERT_TRUE(idealResult.checksumsOk);

    experiments::DseRunConfig ddr = ideal;
    ddr.memTech = MemTech::kDdr4_1ch;
    const auto ddrResult = experiments::runNvdlaDse(ddr);
    ASSERT_TRUE(ddrResult.completed);
    ASSERT_TRUE(ddrResult.checksumsOk);

    const double norm = experiments::normalizedPerf(idealResult, ddrResult);
    EXPECT_GT(norm, 0.0);
    EXPECT_LE(norm, 1.05);

    // Starved of credits, the same point collapses.
    experiments::DseRunConfig starved = ddr;
    starved.maxInflight = 1;
    const auto starvedResult = experiments::runNvdlaDse(starved);
    ASSERT_TRUE(starvedResult.completed);
    EXPECT_GT(starvedResult.runtimeTicks, 2 * ddrResult.runtimeTicks);
}

TEST(Experiments, DseMultipleAcceleratorsShareTheMemory) {
    models::NvdlaShape shape;
    shape.width = shape.height = 16;
    shape.inChannels = shape.outChannels = 32;
    shape.filterH = shape.filterW = 1;

    experiments::DseRunConfig one;
    one.memTech = MemTech::kDdr4_1ch;
    one.shape = shape;
    one.numAccelerators = 1;
    one.numCores = 0;
    one.maxInflight = 64;
    const auto oneResult = experiments::runNvdlaDse(one);
    ASSERT_TRUE(oneResult.completed);
    ASSERT_TRUE(oneResult.checksumsOk);

    experiments::DseRunConfig two = one;
    two.numAccelerators = 2;
    const auto twoResult = experiments::runNvdlaDse(two);
    ASSERT_TRUE(twoResult.completed);
    ASSERT_TRUE(twoResult.checksumsOk);
    ASSERT_EQ(twoResult.perAcceleratorTicks.size(), 2u);

    // Two instances contending for one DDR4 channel cannot be faster than
    // one, and should be measurably slower on this memory-bound shape.
    EXPECT_GT(twoResult.runtimeTicks, oneResult.runtimeTicks);
}

}  // namespace
}  // namespace g5r

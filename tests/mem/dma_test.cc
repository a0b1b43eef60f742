// DmaEngine behaviour: descriptor ordering, byte-exact copies at arbitrary
// alignment, the combined in-flight cap, retry handling on both ports, and
// the zero-byte edge case.
#include <gtest/gtest.h>

#include <vector>

#include "common/flaky_forwarder.hh"
#include "mem/dma.hh"
#include "mem/simple_mem.hh"

namespace g5r {
namespace {

using testing::FlakyForwarder;
using testing::FlakyForwarderParams;

constexpr AddrRange kRange{0, 1ULL << 30};

SimpleMemory::Params memParams() {
    SimpleMemory::Params p;
    p.range = kRange;
    p.maxPending = 256;
    return p;
}

/// DMA between two SimpleMemories with separate backing stores: "mem" plays
/// main memory, "spm" plays the scratchpad endpoint.
struct Harness {
    explicit Harness(DmaEngine::Params dp = {})
        : mem(sim, "mem", memParams(), memStore),
          spm(sim, "spm", memParams(), spmStore),
          dma(sim, "dma", dp) {
        dma.memPort().bind(mem.port());
        dma.spmPort().bind(spm.port());
    }

    void fillPattern(BackingStore& store, Addr base, unsigned bytes, std::uint8_t salt) {
        for (unsigned i = 0; i < bytes; ++i) {
            store.store<std::uint8_t>(base + i, static_cast<std::uint8_t>(i * 31 + salt));
        }
    }

    void expectPattern(BackingStore& store, Addr base, unsigned bytes, std::uint8_t salt) {
        for (unsigned i = 0; i < bytes; ++i) {
            ASSERT_EQ(store.load<std::uint8_t>(base + i),
                      static_cast<std::uint8_t>(i * 31 + salt))
                << "byte " << i << " at 0x" << std::hex << base + i;
        }
    }

    Simulation sim;
    BackingStore memStore;
    BackingStore spmStore;
    SimpleMemory mem;
    SimpleMemory spm;
    DmaEngine dma;
};

TEST(DmaEngine, CopiesLinesMemToSpm) {
    Harness h;
    h.fillPattern(h.memStore, 0x1000, 4096, 7);
    bool done = false;
    h.dma.enqueue({0x1000, 0x1000, 4096, DmaEngine::Direction::kMemToSpm,
                   [&done] { done = true; }});
    h.sim.run();
    EXPECT_TRUE(done);
    EXPECT_TRUE(h.dma.idle());
    h.expectPattern(h.spmStore, 0x1000, 4096, 7);
    EXPECT_EQ(h.sim.findStat("dma.bytesCopied")->value(), 4096.0);
}

TEST(DmaEngine, DrainsSpmToMem) {
    Harness h;
    h.fillPattern(h.spmStore, 0x8000, 1024, 3);
    h.dma.enqueue({0x8000, 0x8000, 1024, DmaEngine::Direction::kSpmToMem, {}});
    h.sim.run();
    h.expectPattern(h.memStore, 0x8000, 1024, 3);
}

TEST(DmaEngine, UnalignedSrcAndDstCopyByteExactly) {
    Harness h;
    // Different misalignments on each side: chunks bound to both lines.
    h.fillPattern(h.memStore, 0x1003, 517, 11);
    h.dma.enqueue({0x1003, 0x2025, 517, DmaEngine::Direction::kMemToSpm, {}});
    h.sim.run();
    EXPECT_TRUE(h.dma.idle());
    for (unsigned i = 0; i < 517; ++i) {
        ASSERT_EQ(h.spmStore.load<std::uint8_t>(0x2025 + i),
                  static_cast<std::uint8_t>(i * 31 + 11));
    }
}

TEST(DmaEngine, DescriptorsCompleteInSubmissionOrder) {
    Harness h;
    h.fillPattern(h.memStore, 0x1000, 256, 1);
    h.fillPattern(h.memStore, 0x5000, 256, 2);
    h.fillPattern(h.memStore, 0x9000, 256, 3);
    std::vector<int> order;
    for (int d = 0; d < 3; ++d) {
        const Addr base = 0x1000 + static_cast<Addr>(d) * 0x4000;
        h.dma.enqueue({base, base, 256, DmaEngine::Direction::kMemToSpm,
                       [&order, d] { order.push_back(d); }});
    }
    h.sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(h.dma.descriptorsCompleted(), 3u);
    h.expectPattern(h.spmStore, 0x1000, 256, 1);
    h.expectPattern(h.spmStore, 0x5000, 256, 2);
    h.expectPattern(h.spmStore, 0x9000, 256, 3);
}

TEST(DmaEngine, RespectsInflightCap) {
    DmaEngine::Params dp;
    dp.maxInflight = 4;
    Harness h{dp};
    h.fillPattern(h.memStore, 0, 8192, 5);
    h.dma.enqueue({0, 0, 8192, DmaEngine::Direction::kMemToSpm, {}});
    h.sim.run();
    h.expectPattern(h.spmStore, 0, 8192, 5);
    const auto* inflight =
        dynamic_cast<const stats::Histogram*>(h.sim.findStat("dma.inflight"));
    ASSERT_NE(inflight, nullptr);
    EXPECT_LE(inflight->maxValue(), 4.0);
    EXPECT_GT(inflight->maxValue(), 0.0);
}

TEST(DmaEngine, ZeroByteDescriptorCompletesImmediately) {
    Harness h;
    bool done = false;
    h.dma.enqueue({0x100, 0x200, 0, DmaEngine::Direction::kMemToSpm,
                   [&done] { done = true; }});
    h.sim.run();
    EXPECT_TRUE(done);
    EXPECT_TRUE(h.dma.idle());
    EXPECT_EQ(h.dma.descriptorsCompleted(), 1u);
    EXPECT_EQ(h.sim.findStat("dma.bytesCopied")->value(), 0.0);
    EXPECT_EQ(h.sim.findStat("mem.numReads")->value(), 0.0);
}

TEST(DmaEngine, SurvivesRetryOnBothPorts) {
    Simulation sim;
    BackingStore memStore;
    BackingStore spmStore;
    SimpleMemory::Params tight = memParams();
    tight.maxPending = 2;  // Genuine back-pressure on top of the flaky stages.
    SimpleMemory mem{sim, "mem", tight, memStore};
    SimpleMemory spm{sim, "spm", tight, spmStore};
    FlakyForwarderParams fp;
    fp.rejectOneIn = 3;
    FlakyForwarder flakyMem{sim, "flaky_mem", fp};
    fp.seed = 99;
    FlakyForwarder flakySpm{sim, "flaky_spm", fp};
    DmaEngine dma{sim, "dma", {}};
    dma.memPort().bind(flakyMem.cpuSidePort());
    flakyMem.memSidePort().bind(mem.port());
    dma.spmPort().bind(flakySpm.cpuSidePort());
    flakySpm.memSidePort().bind(spm.port());

    for (unsigned i = 0; i < 2048; ++i) {
        memStore.store<std::uint8_t>(0x3001 + i, static_cast<std::uint8_t>(i ^ 0x5A));
    }
    bool done = false;
    dma.enqueue({0x3001, 0x3001, 2048, DmaEngine::Direction::kMemToSpm,
                 [&done] { done = true; }});
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_GT(flakyMem.reqRejections() + flakySpm.reqRejections(), 0);
    for (unsigned i = 0; i < 2048; ++i) {
        ASSERT_EQ(spmStore.load<std::uint8_t>(0x3001 + i),
                  static_cast<std::uint8_t>(i ^ 0x5A));
    }
}

}  // namespace
}  // namespace g5r

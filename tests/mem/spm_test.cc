// Scratchpad memory behaviour: write-allocate semantics, SRAM-latency hits,
// miss fills from the downstream port (MSHR coalescing), banking conflicts,
// capacity enforcement, and back-pressure.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/test_requester.hh"
#include "mem/simple_mem.hh"
#include "mem/spm.hh"
#include "sim/request_sink.hh"

namespace g5r {
namespace {

using testing::TestRequester;

constexpr AddrRange kRange{0, 1ULL << 30};

struct Harness {
    explicit Harness(Spm::Params sp = defaultParams())
        : spm(sim, "spm", sp), dram(sim, "dram", dramParams(), dramStore),
          req(sim, "req") {
        req.port().bind(spm.cpuSidePort());
        spm.memSidePort().bind(dram.port());
    }

    static Spm::Params defaultParams() {
        Spm::Params p;
        p.range = kRange;
        return p;
    }

    static SimpleMemory::Params dramParams() {
        SimpleMemory::Params p;
        p.range = kRange;
        p.latency = 50'000;  // DRAM-class: much slower than the SPM array.
        p.maxPending = 256;
        return p;
    }

    double stat(const char* name) { return sim.findStat(name)->value(); }

    Simulation sim;
    BackingStore dramStore;
    Spm spm;
    SimpleMemory dram;
    TestRequester req;
};

// accessLatency = 2 cycles at periodFromGHz(2): 1000 ticks.
constexpr Tick kHitLatency = 2 * periodFromGHz(2);

TEST(Spm, WriteAllocateThenReadHitsAtSramLatency) {
    Harness h;
    auto wr = makeWritePacket(0x1000, 64);
    wr->set<std::uint64_t>(0xABCD);
    h.req.issueAt(0, std::move(wr));
    h.req.issueAt(10'000, makeReadPacket(0x1000, 64));
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 2u);
    EXPECT_EQ(h.req.responses()[0].tick, kHitLatency);
    EXPECT_EQ(h.req.responses()[1].tick, 10'000 + kHitLatency);
    EXPECT_EQ(h.req.responses()[1].pkt->get<std::uint64_t>(), 0xABCDu);
    EXPECT_EQ(h.stat("spm.readHits"), 1.0);
    EXPECT_EQ(h.stat("spm.readMisses"), 0.0);
    EXPECT_EQ(h.stat("spm.fills"), 0.0);  // Hits never touch main memory.
    EXPECT_EQ(h.spm.residentLines(), 1u);
}

TEST(Spm, UnwrittenBytesOfAllocatedLineReadZero) {
    Harness h;
    // Private storage, not a cache: allocating 8 bytes must not pull the
    // rest of the line from main memory.
    h.dramStore.store<std::uint64_t>(0x2008, ~0ULL);
    auto wr = makeWritePacket(0x2000, 8);
    wr->set<std::uint64_t>(1);
    h.req.issueAt(0, std::move(wr));
    h.req.issueAt(10'000, makeReadPacket(0x2008, 8));
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 2u);
    EXPECT_EQ(h.req.responses()[1].pkt->get<std::uint64_t>(), 0u);
}

TEST(Spm, ReadMissFillsFromDownstream) {
    Harness h;
    h.dramStore.store<std::uint64_t>(0x4000, 77);
    h.req.issueAt(0, makeReadPacket(0x4000, 64));
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 1u);
    EXPECT_EQ(h.req.responses()[0].pkt->get<std::uint64_t>(), 77u);
    // Miss latency includes the downstream round trip.
    EXPECT_GE(h.req.responses()[0].tick, Harness::dramParams().latency);
    EXPECT_EQ(h.stat("spm.readMisses"), 1.0);
    EXPECT_EQ(h.stat("spm.fills"), 1.0);
    EXPECT_EQ(h.spm.residentLines(), 1u);

    // The filled line is now resident: a second read is a fast hit.
    h.req.issueAt(h.sim.curTick() + 1000, makeReadPacket(0x4000, 64));
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 2u);
    EXPECT_EQ(h.stat("spm.readHits"), 1.0);
    EXPECT_EQ(h.stat("spm.fills"), 1.0);
}

TEST(Spm, LineCrossingMissFetchesEveryLineOnce) {
    Harness h;
    for (int i = 0; i < 16; ++i) h.dramStore.store<std::uint64_t>(0x8000 + 8 * i, i);
    // One 128 B read + a second read of the first line: 2 fills total (MSHR
    // coalescing, one per absent line).
    h.req.issueAt(0, makeReadPacket(0x8000, 128));
    h.req.issueAt(0, makeReadPacket(0x8000, 64));
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 2u);
    EXPECT_EQ(h.stat("spm.fills"), 2.0);
    EXPECT_EQ(h.stat("spm.readMisses"), 2.0);
    EXPECT_EQ(h.spm.residentLines(), 2u);
}

/// Collects span reports so tests can assert on the causal-tracing spans
/// the SPM emits (sim/request_sink.hh).
struct SpanRecorder : RequestSink {
    struct Recorded {
        ReqId id;
        ReqStage stage;
        Tick begin;
        Tick end;
    };
    void onBegin(ReqId, ReqId, const char*, Tick) override {}
    void onEnd(ReqId, Tick) override {}
    void onSpan(ReqId id, ReqStage stage, Tick begin, Tick end) override {
        spans.push_back(Recorded{id, stage, begin, end});
    }
    std::vector<Recorded> spans;
};

TEST(Spm, MshrJoinersEachGetTheirOwnFillSpan) {
    // Two tagged reads miss on the same absent line; the second joins the
    // first's in-flight fill (one fill, one mshrJoin). The fill packet keeps
    // the first waiter's ReqId, but *each* read reports its own kSpmFill
    // span — from its own arrival to the shared ready tick — so every
    // request's trace shows the stall it actually experienced.
    Harness h;
    SpanRecorder rec;
    h.sim.setRequestSink(&rec);
    h.dramStore.store<std::uint64_t>(0x4000, 7);
    auto first = makeReadPacket(0x4000, 64);
    first->setReqId(11);
    auto second = makeReadPacket(0x4000, 64);
    second->setReqId(22);
    h.req.issueAt(0, std::move(first));
    h.req.issueAt(5'000, std::move(second));
    h.sim.run();

    ASSERT_EQ(h.req.numResponses(), 2u);
    EXPECT_EQ(h.stat("spm.fills"), 1.0);
    EXPECT_EQ(h.stat("spm.readMisses"), 2.0);
    EXPECT_EQ(h.stat("spm.mshrJoins"), 1.0);

    ASSERT_EQ(rec.spans.size(), 2u);
    const auto& s1 = rec.spans[0];
    const auto& s2 = rec.spans[1];
    EXPECT_EQ(s1.id, 11u);
    EXPECT_EQ(s2.id, 22u);
    EXPECT_EQ(s1.stage, ReqStage::kSpmFill);
    EXPECT_EQ(s2.stage, ReqStage::kSpmFill);
    EXPECT_EQ(s1.begin, 0u);
    EXPECT_EQ(s2.begin, 5'000u);  // The joiner's stall starts at *its* arrival.
    EXPECT_GE(s1.end, Harness::dramParams().latency);
    EXPECT_GE(s2.end, s1.end);  // Shared fill: both become ready together.
}

TEST(Spm, UntaggedMissesEmitNoSpans) {
    Harness h;
    SpanRecorder rec;
    h.sim.setRequestSink(&rec);
    h.req.issueAt(0, makeReadPacket(0x4000, 64));
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 1u);
    EXPECT_EQ(h.stat("spm.fills"), 1.0);
    EXPECT_TRUE(rec.spans.empty());
}

TEST(Spm, SameBankAccessesConflictAcrossBanksDoNot) {
    Spm::Params sp = Harness::defaultParams();
    sp.banks = 8;
    {
        Harness h{sp};
        // Same-cycle writes to the same bank: (addr >> 6) % 8.
        h.req.issueAt(0, makeWritePacket(0, 64));
        h.req.issueAt(0, makeWritePacket(64 * 8, 64));
        h.sim.run();
        ASSERT_EQ(h.req.numResponses(), 2u);
        EXPECT_EQ(h.stat("spm.bankConflicts"), 1.0);
        EXPECT_EQ(h.req.responses()[1].tick - h.req.responses()[0].tick,
                  h.spm.clockPeriod());
    }
    {
        Harness h{sp};
        h.req.issueAt(0, makeWritePacket(0, 64));
        h.req.issueAt(0, makeWritePacket(64, 64));  // Neighbouring bank.
        h.sim.run();
        ASSERT_EQ(h.req.numResponses(), 2u);
        EXPECT_EQ(h.stat("spm.bankConflicts"), 0.0);
        EXPECT_EQ(h.req.responses()[0].tick, h.req.responses()[1].tick);
    }
}

TEST(Spm, BackPressureRetriesAndCompletes) {
    Spm::Params sp = Harness::defaultParams();
    sp.maxPending = 2;
    Harness h{sp};
    for (int i = 0; i < 32; ++i) {
        auto wr = makeWritePacket(64 * i, 64);
        wr->set<std::uint64_t>(i);
        h.req.issueAt(0, std::move(wr));
    }
    for (int i = 0; i < 32; ++i) h.req.issueAt(0, makeReadPacket(64 * i, 64));
    h.sim.run();
    EXPECT_TRUE(h.req.allResponsesReceived());
    EXPECT_EQ(h.req.numResponses(), 64u);
    EXPECT_GT(h.req.retriesSeen(), 0);
    for (std::size_t i = 32; i < 64; ++i) {
        EXPECT_EQ(h.req.responses()[i].pkt->get<std::uint64_t>(),
                  static_cast<std::uint64_t>(i - 32));
    }
}

TEST(Spm, WritebacksAreAbsorbed) {
    Harness h;
    auto wb = std::make_unique<Packet>(MemCmd::kWritebackDirty, 0x5000, 64);
    wb->set<std::uint64_t>(4321);
    h.req.issueAt(0, std::move(wb));
    h.req.issueAt(10'000, makeReadPacket(0x5000, 64));
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 1u);  // No ack for the writeback.
    EXPECT_EQ(h.req.responses()[0].pkt->get<std::uint64_t>(), 4321u);
}

TEST(Spm, FunctionalReadsMergeResidentAndDownstreamBytes) {
    Harness h;
    h.dramStore.store<std::uint64_t>(0x6040, 99);  // Second line, absent.
    auto wr = makeWritePacket(0x6000, 8);          // First line, resident.
    wr->set<std::uint64_t>(55);
    h.req.issueAt(0, std::move(wr));
    h.sim.run();

    Packet rd{MemCmd::kReadReq, 0x6000, 128};
    h.req.port().sendFunctional(rd);
    EXPECT_EQ(rd.get<std::uint64_t>(), 55u);
    std::uint64_t second = 0;
    std::memcpy(&second, rd.constData() + 0x40, sizeof(second));
    EXPECT_EQ(second, 99u);
}

TEST(SpmDeath, CapacityOverflowPanics) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Spm::Params sp = Harness::defaultParams();
    sp.sizeBytes = 64;  // One line.
    EXPECT_DEATH(
        {
            Harness h{sp};
            h.req.issueAt(0, makeWritePacket(0, 64));
            h.req.issueAt(0, makeWritePacket(64, 64));
            h.sim.run();
        },
        "overflow");
}

}  // namespace
}  // namespace g5r

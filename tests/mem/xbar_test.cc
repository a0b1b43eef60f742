// Crossbar: routing (plain and interleaved), response return paths, layer
// contention/retries, latency, and functional access.
#include <gtest/gtest.h>

#include "common/test_requester.hh"
#include "mem/simple_mem.hh"
#include "mem/xbar.hh"

namespace g5r {
namespace {

using testing::TestRequester;

struct Harness {
    // Two requesters, crossbar, two memories at disjoint ranges.
    Harness() {
        Xbar::Params xp;
        xbar = std::make_unique<Xbar>(sim, "xbar", xp);
        reqA = std::make_unique<TestRequester>(sim, "reqA");
        reqB = std::make_unique<TestRequester>(sim, "reqB");

        SimpleMemory::Params mp;
        mp.latency = 10'000;
        mp.range = AddrRange{0, 1ULL << 20};
        memLo = std::make_unique<SimpleMemory>(sim, "memLo", mp, store);
        mp.range = AddrRange{1ULL << 20, 2ULL << 20};
        memHi = std::make_unique<SimpleMemory>(sim, "memHi", mp, store);

        reqA->port().bind(xbar->addCpuSidePort("a"));
        reqB->port().bind(xbar->addCpuSidePort("b"));
        xbar->addMemSidePort("lo", RouteSpec{memLo->range()}).bind(memLo->port());
        xbar->addMemSidePort("hi", RouteSpec{memHi->range()}).bind(memHi->port());
    }

    Simulation sim;
    BackingStore store;
    std::unique_ptr<Xbar> xbar;
    std::unique_ptr<TestRequester> reqA;
    std::unique_ptr<TestRequester> reqB;
    std::unique_ptr<SimpleMemory> memLo;
    std::unique_ptr<SimpleMemory> memHi;
};

TEST(Xbar, RoutesByAddressRange) {
    Harness h;
    h.reqA->issueAt(0, makeReadPacket(0x100, 8));
    h.reqA->issueAt(0, makeReadPacket((1ULL << 20) + 0x100, 8));
    h.sim.run();
    EXPECT_EQ(h.reqA->numResponses(), 2u);
    EXPECT_EQ(h.sim.findStat("memLo.numReads")->value(), 1.0);
    EXPECT_EQ(h.sim.findStat("memHi.numReads")->value(), 1.0);
}

TEST(Xbar, ResponsesReturnToCorrectRequester) {
    Harness h;
    h.store.store<std::uint64_t>(0x100, 0xA);
    h.store.store<std::uint64_t>(0x200, 0xB);
    h.reqA->issueAt(0, makeReadPacket(0x100, 8));
    h.reqB->issueAt(0, makeReadPacket(0x200, 8));
    h.sim.run();
    ASSERT_EQ(h.reqA->numResponses(), 1u);
    ASSERT_EQ(h.reqB->numResponses(), 1u);
    EXPECT_EQ(h.reqA->responses()[0].pkt->get<std::uint64_t>(), 0xAu);
    EXPECT_EQ(h.reqB->responses()[0].pkt->get<std::uint64_t>(), 0xBu);
}

TEST(Xbar, AddsForwardLatency) {
    Harness h;
    h.reqA->issueAt(0, makeReadPacket(0x100, 8));
    h.sim.run();
    ASSERT_EQ(h.reqA->numResponses(), 1u);
    // 2-cycle (1 ns) header each way at 2 GHz + 10 ns memory, plus beat
    // serialisation; strictly more than the raw memory latency.
    EXPECT_GT(h.reqA->responses()[0].tick, 10'000u + 2 * 1000u - 1);
}

TEST(Xbar, ContendingRequestersBothComplete) {
    Harness h;
    for (int i = 0; i < 50; ++i) {
        h.reqA->issueAt(0, makeReadPacket(64 * i, 64));
        h.reqB->issueAt(0, makeReadPacket(64 * i + (1 << 12), 64));
    }
    h.sim.run();
    EXPECT_EQ(h.reqA->numResponses(), 50u);
    EXPECT_EQ(h.reqB->numResponses(), 50u);
    EXPECT_GT(h.sim.findStat("xbar.layerConflicts")->value(), 0.0);
}

TEST(Xbar, InterleavedRoutingStripesBanks) {
    Simulation sim;
    BackingStore store;
    Xbar xbar{sim, "xbar", {}};
    TestRequester req{sim, "req"};
    req.port().bind(xbar.addCpuSidePort("r"));

    // Two banks striped on bit 6 (64 B lines).
    SimpleMemory::Params mp;
    mp.range = AddrRange{0, 1ULL << 20};
    SimpleMemory bank0{sim, "bank0", mp, store};
    SimpleMemory bank1{sim, "bank1", mp, store};
    xbar.addMemSidePort("b0", RouteSpec{mp.range, 6, 1, 0}).bind(bank0.port());
    xbar.addMemSidePort("b1", RouteSpec{mp.range, 6, 1, 1}).bind(bank1.port());

    for (int i = 0; i < 8; ++i) req.issueAt(0, makeReadPacket(64 * i, 64));
    sim.run();
    EXPECT_EQ(req.numResponses(), 8u);
    EXPECT_EQ(sim.findStat("bank0.numReads")->value(), 4.0);
    EXPECT_EQ(sim.findStat("bank1.numReads")->value(), 4.0);
}

TEST(Xbar, FunctionalRoutesToTheRightEndpoint) {
    Harness h;
    Packet w{MemCmd::kWriteReq, (1ULL << 20) + 0x40, 8};
    w.set<std::uint64_t>(4242);
    h.reqA->port().sendFunctional(w);
    EXPECT_EQ(h.store.load<std::uint64_t>((1ULL << 20) + 0x40), 4242u);

    Packet r{MemCmd::kReadReq, (1ULL << 20) + 0x40, 8};
    h.reqB->port().sendFunctional(r);
    EXPECT_EQ(r.get<std::uint64_t>(), 4242u);
}

TEST(Xbar, WritebacksRouteWithoutResponse) {
    Harness h;
    auto wb = std::make_unique<Packet>(MemCmd::kWritebackDirty, 0x300, 64);
    wb->set<std::uint64_t>(55);
    h.reqA->issueAt(0, std::move(wb));
    h.sim.run();
    EXPECT_EQ(h.reqA->numResponses(), 0u);
    EXPECT_EQ(h.store.load<std::uint64_t>(0x300), 55u);
}

TEST(Xbar, HeavyBidirectionalStress) {
    Harness h;
    for (int i = 0; i < 200; ++i) {
        if (i % 3 == 0) {
            auto w = makeWritePacket(8 * i, 8);
            w->set<std::uint64_t>(i);
            h.reqA->issueAt(i * 100, std::move(w));
        } else {
            h.reqA->issueAt(i * 100, makeReadPacket(64 * i, 8));
        }
        h.reqB->issueAt(i * 50, makeReadPacket((1ULL << 20) + 64 * i, 8));
    }
    h.sim.run();
    EXPECT_TRUE(h.reqA->allResponsesReceived());
    EXPECT_TRUE(h.reqB->allResponsesReceived());
}

TEST(XbarDeath, ResponseWithEmptySenderStatePanics) {
    // A responder that answers a request the crossbar never routed: the
    // response carries no way home, and the crossbar must say so.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    class Rogue final : public ResponsePort {
    public:
        using ResponsePort::ResponsePort;
        bool recvTimingReq(PacketPtr&) override { return false; }
        void recvFunctional(Packet&) override {}
        void recvRespRetry() override {}
    };
    const auto strayResponse = [] {
        Simulation sim;
        Xbar xbar{sim, "xbar", Xbar::Params{}};
        TestRequester req{sim, "req"};
        Rogue rogue{"rogue"};
        req.port().bind(xbar.addCpuSidePort("req"));
        xbar.addMemSidePort("mem", RouteSpec{AddrRange{0, 1 << 20}}).bind(rogue);
        PacketPtr pkt = makeReadPacket(0x40, 8);
        pkt->makeResponse();
        (void)rogue.sendTimingResp(pkt);
    };
    EXPECT_DEATH(strayResponse(), "sender-state stack underflow");
}

}  // namespace
}  // namespace g5r

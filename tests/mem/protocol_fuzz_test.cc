// Failure injection on the port protocol and the memory system: a flaky
// responder that randomly rejects requests and delays retries, and a flaky
// requester that randomly rejects responses — every transaction must still
// complete exactly once with correct data, through raw ports and through
// the crossbar.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/flaky_forwarder.hh"
#include "common/test_requester.hh"
#include "mem/cache/cache.hh"
#include "mem/simple_mem.hh"
#include "mem/xbar.hh"
#include "sim/rng.hh"

namespace g5r {
namespace {

using testing::FlakyForwarder;
using testing::TestRequester;

/// A memory endpoint that randomly rejects incoming requests (issuing the
/// retry later) and serves reads with address-derived data after a random
/// latency. Exercises every edge of the request/retry handshake.
class FlakyMemory : public ClockedObject {
public:
    FlakyMemory(Simulation& sim, std::string name, std::uint64_t seed)
        : ClockedObject(sim, std::move(name), periodFromGHz(1)),
          port_(this->name() + ".port", *this),
          rng_(seed),
          drainEvent_([this] { drain(); }, *this, "drain") {}

    ResponsePort& port() { return port_; }
    std::uint64_t requestsServed() const { return served_; }

private:
    class Port final : public ResponsePort {
    public:
        Port(std::string n, FlakyMemory& o) : ResponsePort(std::move(n)), owner_(o) {}
        bool recvTimingReq(PacketPtr& pkt) override { return owner_.handleReq(pkt); }
        void recvFunctional(Packet& pkt) override { owner_.access(pkt); }
        void recvRespRetry() override { owner_.blocked_ = false; owner_.drain(); }

    private:
        FlakyMemory& owner_;
    };

    bool handleReq(PacketPtr& pkt) {
        if (rng_.below(3) == 0) {  // Reject one in three.
            pendingRetry_ = true;
            // Retry later, at a random delay.
            if (!drainEvent_.scheduled()) {
                eventQueue().schedule(drainEvent_, clockEdge(1 + rng_.below(5)));
            }
            return false;
        }
        access(*pkt);
        if (!pkt->needsResponse()) {
            pkt.reset();
            return true;
        }
        pkt->makeResponse();
        queue_.push_back(std::move(pkt));
        ++served_;
        if (!drainEvent_.scheduled()) {
            eventQueue().schedule(drainEvent_, clockEdge(1 + rng_.below(8)));
        }
        return true;
    }

    void drain() {
        while (!blocked_ && !queue_.empty()) {
            PacketPtr& pkt = queue_.front();
            if (!port_.sendTimingResp(pkt)) {
                blocked_ = true;
                break;
            }
            queue_.pop_front();
        }
        if (pendingRetry_) {
            pendingRetry_ = false;
            port_.sendReqRetry();
        }
        if (!queue_.empty() && !blocked_ && !drainEvent_.scheduled()) {
            eventQueue().schedule(drainEvent_, clockEdge(1 + rng_.below(8)));
        }
    }

    /// Reads return written data when available, else an address-derived
    /// pattern (so read-only fuzzing can verify payloads statelessly).
    void access(Packet& pkt) {
        if (pkt.isWrite() && pkt.hasData()) {
            std::uint64_t v = 0;
            std::memcpy(&v, pkt.constData(), std::min<unsigned>(8, pkt.size()));
            writes_[pkt.addr()] = v;
        } else if (pkt.isRead()) {
            const auto it = writes_.find(pkt.addr());
            pkt.set<std::uint64_t>(it != writes_.end() ? it->second : pkt.addr() * 31);
        }
    }

    Port port_;
    Rng rng_;
    std::map<Addr, std::uint64_t> writes_;
    CallbackEvent drainEvent_;
    std::deque<PacketPtr> queue_;
    bool pendingRetry_ = false;
    bool blocked_ = false;
    std::uint64_t served_ = 0;
};

class ProtocolFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolFuzz, DirectConnectionSurvivesRejection) {
    Simulation sim;
    FlakyMemory mem{sim, "flaky", GetParam()};
    TestRequester req{sim, "req"};
    req.port().bind(mem.port());

    Rng rng{GetParam() ^ 0xABCD};
    constexpr int kPackets = 300;
    for (int i = 0; i < kPackets; ++i) {
        req.issueAt(rng.below(50'000), makeReadPacket(8 * rng.below(1024), 8));
    }
    sim.run();
    ASSERT_EQ(req.numResponses(), kPackets);
    EXPECT_GT(req.retriesSeen(), 0);
    for (const auto& r : req.responses()) {
        EXPECT_EQ(r.pkt->get<std::uint64_t>(), r.pkt->addr() * 31);
    }
}

TEST_P(ProtocolFuzz, ThroughTheCrossbarWithTwoFlakyEndpoints) {
    Simulation sim;
    Xbar xbar{sim, "xbar", Xbar::Params{}};
    FlakyMemory lo{sim, "lo", GetParam()};
    FlakyMemory hi{sim, "hi", GetParam() * 7 + 1};
    TestRequester reqA{sim, "a"};
    TestRequester reqB{sim, "b"};

    reqA.port().bind(xbar.addCpuSidePort("a"));
    reqB.port().bind(xbar.addCpuSidePort("b"));
    xbar.addMemSidePort("lo", RouteSpec{AddrRange{0, 1 << 20}}).bind(lo.port());
    xbar.addMemSidePort("hi", RouteSpec{AddrRange{1 << 20, 2 << 20}}).bind(hi.port());

    Rng rng{GetParam() ^ 0x9999};
    constexpr int kPackets = 200;
    for (int i = 0; i < kPackets; ++i) {
        const Addr base = rng.below(2) == 0 ? 0 : (1 << 20);
        reqA.issueAt(rng.below(100'000), makeReadPacket(base + 8 * rng.below(512), 8));
        reqB.issueAt(rng.below(100'000), makeReadPacket(base + 8 * rng.below(512), 8));
    }
    sim.run();
    ASSERT_EQ(reqA.numResponses(), kPackets);
    ASSERT_EQ(reqB.numResponses(), kPackets);
    for (const auto& r : reqA.responses()) {
        EXPECT_EQ(r.pkt->get<std::uint64_t>(), r.pkt->addr() * 31);
    }
    for (const auto& r : reqB.responses()) {
        EXPECT_EQ(r.pkt->get<std::uint64_t>(), r.pkt->addr() * 31);
    }
}

TEST_P(ProtocolFuzz, ThreeNestedCrossbarsUnwindTheSenderStateStack) {
    // top -> mid -> bottom crossbars, a flaky forwarder on each link between
    // them and two requesters on every level: a top-level request carries
    // three crossbars' sender state (six words; the core path needs five)
    // and must unwind it exactly, whatever the rejections in between.
    Simulation sim;
    Xbar top{sim, "top", Xbar::Params{}};
    Xbar mid{sim, "mid", Xbar::Params{}};
    Xbar bottom{sim, "bottom", Xbar::Params{}};
    FlakyForwarder topLink{sim, "topLink", {static_cast<std::uint32_t>(GetParam()), 3, 2'000}};
    FlakyForwarder midLink{sim, "midLink", {static_cast<std::uint32_t>(GetParam() * 3), 4, 3'000}};
    FlakyMemory lo{sim, "lo", GetParam()};
    FlakyMemory hi{sim, "hi", GetParam() * 7 + 1};

    std::vector<std::unique_ptr<TestRequester>> reqs;
    for (Xbar* level : {&top, &mid, &bottom}) {
        for (const char* side : {"a", "b"}) {
            const std::string suffix = level->name() + side;
            reqs.push_back(std::make_unique<TestRequester>(sim, suffix));
            reqs.back()->port().bind(level->addCpuSidePort(suffix));
        }
    }
    const AddrRange all{0, 2 << 20};
    top.addMemSidePort("down", RouteSpec{all}).bind(topLink.cpuSidePort());
    topLink.memSidePort().bind(mid.addCpuSidePort("up"));
    mid.addMemSidePort("down", RouteSpec{all}).bind(midLink.cpuSidePort());
    midLink.memSidePort().bind(bottom.addCpuSidePort("up"));
    bottom.addMemSidePort("lo", RouteSpec{AddrRange{0, 1 << 20}}).bind(lo.port());
    bottom.addMemSidePort("hi", RouteSpec{AddrRange{1 << 20, 2 << 20}}).bind(hi.port());

    // Requester k owns the 8-byte words with (addr / 8) % 8 == k, so a
    // response that reached the wrong sender shows. Reads hit the low 32 KiB
    // of each range; writes go above it, so reads keep the address pattern.
    Rng rng{GetParam() ^ 0x5151};
    constexpr unsigned kPackets = 150;
    for (unsigned k = 0; k < reqs.size(); ++k) {
        for (unsigned i = 0; i < kPackets; ++i) {
            const Addr base = rng.below(2) == 0 ? 0 : (1 << 20);
            const Addr word = 8 * (k + 8 * rng.below(512));
            PacketPtr pkt;
            if (rng.below(4) == 0) {
                pkt = makeWritePacket(base + 0x8000 + word, 8);
                pkt->set<std::uint64_t>(word);
            } else {
                pkt = makeReadPacket(base + word, 8);
            }
            reqs[k]->issueAt(rng.below(100'000), std::move(pkt));
        }
    }
    sim.run();

    EXPECT_GT(topLink.reqRejections() + topLink.respRejections(), 0);
    EXPECT_GT(midLink.reqRejections() + midLink.respRejections(), 0);
    for (unsigned k = 0; k < reqs.size(); ++k) {
        ASSERT_EQ(reqs[k]->numResponses(), kPackets) << reqs[k]->name();
        for (const auto& r : reqs[k]->responses()) {
            EXPECT_EQ(r.pkt->senderStateDepth(), 0u);
            EXPECT_EQ((r.pkt->addr() / 8) % 8, k) << reqs[k]->name();
            if (r.pkt->cmd() == MemCmd::kReadResp) {
                EXPECT_EQ(r.pkt->get<std::uint64_t>(), r.pkt->addr() * 31);
            } else {
                EXPECT_EQ(r.pkt->cmd(), MemCmd::kWriteResp);
            }
        }
    }
    // Each crossbar sampled one round trip per request it routed, on the
    // port the request came in by.
    EXPECT_EQ(top.latency(0).count(), kPackets);
    EXPECT_EQ(top.latency(1).count(), kPackets);
    for (unsigned up = 0; up < 2; ++up) {
        EXPECT_EQ(mid.latency(up).count(), kPackets);
        EXPECT_EQ(bottom.latency(up).count(), kPackets);
    }
    EXPECT_EQ(mid.cpuSideSuffix(2), "up");
    EXPECT_EQ(mid.latency(2).count(), 2 * kPackets);
    EXPECT_EQ(bottom.latency(2).count(), 4 * kPackets);
    EXPECT_EQ(top.statsGroup().find("reqsRouted")->value(), 2 * kPackets);
    EXPECT_EQ(mid.statsGroup().find("reqsRouted")->value(), 4 * kPackets);
    EXPECT_EQ(bottom.statsGroup().find("reqsRouted")->value(), 6 * kPackets);
}

TEST_P(ProtocolFuzz, CacheOverFlakyMemoryStaysCorrect) {
    // Write-then-read patterns through a cache whose backing memory is
    // flaky: data integrity end to end.
    Simulation sim;
    CacheParams cp;
    cp.sizeBytes = 2 * 1024;
    cp.assoc = 2;
    cp.mshrs = 4;
    Cache cache{sim, "c", cp};
    FlakyMemory mem{sim, "flaky", GetParam()};
    TestRequester req{sim, "req"};
    req.port().bind(cache.cpuSidePort());
    cache.memSidePort().bind(mem.port());

    Rng rng{GetParam() + 5};
    // Writes to 64 distinct lines (more than the cache holds).
    for (int i = 0; i < 64; ++i) {
        auto w = makeWritePacket(64 * i, 8);
        w->set<std::uint64_t>(0xA000 + i);
        req.issueAt(rng.below(20'000), std::move(w));
    }
    sim.run();
    ASSERT_TRUE(req.allResponsesReceived());

    // Read them all back through the same path.
    for (int i = 0; i < 64; ++i) {
        req.issueAt(sim.curTick() + rng.below(20'000), makeReadPacket(64 * i, 8));
    }
    sim.run();
    ASSERT_EQ(req.numResponses(), 128u);
    for (std::size_t i = 64; i < 128; ++i) {
        const auto& r = req.responses()[i];
        EXPECT_EQ(r.pkt->get<std::uint64_t>(), 0xA000 + r.pkt->addr() / 64);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzz, ::testing::Values(11u, 22u, 33u, 44u, 55u));

}  // namespace
}  // namespace g5r

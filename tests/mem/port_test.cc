// Port protocol: accept/reject handshakes, retries in both directions, and
// functional access. Uses small scripted endpoints as protocol monitors.
#include <gtest/gtest.h>

#include <deque>

#include "mem/port.hh"

namespace g5r {
namespace {

// A requester that records responses and retry notifications.
class ScriptedRequester final : public RequestPort {
public:
    using RequestPort::RequestPort;

    bool recvTimingResp(PacketPtr& pkt) override {
        if (rejectResponses) {
            ++responsesRejected;
            return false;
        }
        responses.push_back(std::move(pkt));
        return true;
    }
    void recvReqRetry() override { ++reqRetries; }

    bool rejectResponses = false;
    int reqRetries = 0;
    int responsesRejected = 0;
    std::deque<PacketPtr> responses;
};

// A responder that can be told to reject, and echoes responses on demand.
class ScriptedResponder final : public ResponsePort {
public:
    using ResponsePort::ResponsePort;

    bool recvTimingReq(PacketPtr& pkt) override {
        if (rejectRequests) {
            ++requestsRejected;
            return false;
        }
        requests.push_back(std::move(pkt));
        return true;
    }
    void recvFunctional(Packet& pkt) override { ++functionalAccesses; lastFunctional = pkt.addr(); }
    void recvRespRetry() override { ++respRetries; }

    bool rejectRequests = false;
    int requestsRejected = 0;
    int respRetries = 0;
    int functionalAccesses = 0;
    Addr lastFunctional = 0;
    std::deque<PacketPtr> requests;
};

class PortTest : public ::testing::Test {
protected:
    void SetUp() override { req.bind(resp); }
    ScriptedRequester req{"req"};
    ScriptedResponder resp{"resp"};
};

TEST_F(PortTest, AcceptedRequestTransfersOwnership) {
    PacketPtr pkt = makeReadPacket(0x1000, 64);
    Packet* raw = pkt.get();
    EXPECT_TRUE(req.sendTimingReq(pkt));
    EXPECT_EQ(pkt, nullptr);
    ASSERT_EQ(resp.requests.size(), 1u);
    EXPECT_EQ(resp.requests.front().get(), raw);
}

TEST_F(PortTest, RejectedRequestStaysWithSender) {
    resp.rejectRequests = true;
    PacketPtr pkt = makeReadPacket(0x2000, 64);
    EXPECT_FALSE(req.sendTimingReq(pkt));
    ASSERT_NE(pkt, nullptr);
    EXPECT_EQ(pkt->addr(), 0x2000u);
    EXPECT_EQ(resp.requestsRejected, 1);

    // After the retry notification the sender can succeed.
    resp.rejectRequests = false;
    resp.sendReqRetry();
    EXPECT_EQ(req.reqRetries, 1);
    EXPECT_TRUE(req.sendTimingReq(pkt));
    EXPECT_EQ(pkt, nullptr);
}

TEST_F(PortTest, ResponseRoundTrip) {
    PacketPtr pkt = makeReadPacket(0x3000, 8);
    ASSERT_TRUE(req.sendTimingReq(pkt));

    PacketPtr response = std::move(resp.requests.front());
    resp.requests.pop_front();
    response->set<std::uint64_t>(0xDEADBEEFull);
    response->makeResponse();
    ASSERT_TRUE(response->isResponse());
    EXPECT_TRUE(resp.sendTimingResp(response));
    EXPECT_EQ(response, nullptr);
    ASSERT_EQ(req.responses.size(), 1u);
    EXPECT_EQ(req.responses.front()->get<std::uint64_t>(), 0xDEADBEEFull);
}

TEST_F(PortTest, RejectedResponseRetries) {
    PacketPtr pkt = makeReadPacket(0x4000, 8);
    ASSERT_TRUE(req.sendTimingReq(pkt));
    PacketPtr response = std::move(resp.requests.front());
    resp.requests.pop_front();
    response->makeResponse();

    req.rejectResponses = true;
    EXPECT_FALSE(resp.sendTimingResp(response));
    ASSERT_NE(response, nullptr);
    EXPECT_EQ(req.responsesRejected, 1);

    req.rejectResponses = false;
    req.sendRespRetry();
    EXPECT_EQ(resp.respRetries, 1);
    EXPECT_TRUE(resp.sendTimingResp(response));
}

TEST_F(PortTest, FunctionalAccessIsSynchronous) {
    Packet pkt{MemCmd::kWriteReq, 0x5000, 4};
    pkt.set<std::uint32_t>(42);
    req.sendFunctional(pkt);
    EXPECT_EQ(resp.functionalAccesses, 1);
    EXPECT_EQ(resp.lastFunctional, 0x5000u);
}

TEST(PacketTest, MakeResponseConversions) {
    Packet read{MemCmd::kReadReq, 0x0, 64};
    EXPECT_TRUE(read.needsResponse());
    read.makeResponse();
    EXPECT_EQ(read.cmd(), MemCmd::kReadResp);
    EXPECT_TRUE(read.isResponse());

    Packet write{MemCmd::kWriteReq, 0x0, 64};
    write.makeResponse();
    EXPECT_EQ(write.cmd(), MemCmd::kWriteResp);

    Packet prefetch{MemCmd::kPrefetchReq, 0x0, 64};
    EXPECT_TRUE(prefetch.isRead());
    prefetch.makeResponse();
    EXPECT_EQ(prefetch.cmd(), MemCmd::kReadResp);

    Packet wb{MemCmd::kWritebackDirty, 0x0, 64};
    EXPECT_FALSE(wb.needsResponse());
    EXPECT_TRUE(wb.isEviction());
    EXPECT_TRUE(wb.isWrite());
}

TEST(PacketTest, PayloadTypedAccess) {
    Packet pkt{MemCmd::kWriteReq, 0x10, 16};
    pkt.set<std::uint32_t>(0xCAFEBABE);
    EXPECT_EQ(pkt.get<std::uint32_t>(), 0xCAFEBABEu);
    EXPECT_TRUE(pkt.hasData());
    EXPECT_EQ(pkt.size(), 16u);
}

TEST(PacketTest, UniqueIds) {
    Packet a{MemCmd::kReadReq, 0, 4};
    Packet b{MemCmd::kReadReq, 0, 4};
    EXPECT_NE(a.id(), b.id());
}

TEST(PacketTest, SenderStateIsALastInFirstOutStack) {
    Packet pkt{MemCmd::kReadReq, 0, 4};
    EXPECT_EQ(pkt.senderStateDepth(), 0u);
    for (std::uint64_t w = 0; w < Packet::kSenderStateCapacity; ++w) {
        pkt.pushSenderState(~w);
    }
    EXPECT_EQ(pkt.senderStateDepth(), Packet::kSenderStateCapacity);
    pkt.makeResponse();  // The stack rides through the conversion.
    for (std::uint64_t w = Packet::kSenderStateCapacity; w-- > 0;) {
        EXPECT_EQ(pkt.peekSenderState(), ~w);
        EXPECT_EQ(pkt.popSenderState(), ~w);
    }
    EXPECT_EQ(pkt.senderStateDepth(), 0u);
}

TEST(PacketDeath, SenderStateOverflowPanics) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto overflow = [] {
        Packet pkt{MemCmd::kReadReq, 0, 4};
        for (unsigned i = 0; i <= Packet::kSenderStateCapacity; ++i) pkt.pushSenderState(i);
    };
    EXPECT_DEATH(overflow(), "sender-state stack overflow");
}

TEST(PacketDeath, SenderStatePopOnEmptyPanics) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto popTwice = [] {
        Packet pkt{MemCmd::kReadReq, 0, 4};
        pkt.pushSenderState(1);
        (void)pkt.popSenderState();
        (void)pkt.popSenderState();
    };
    const auto peekEmpty = [] {
        const Packet pkt{MemCmd::kReadReq, 0, 4};
        (void)pkt.peekSenderState();
    };
    EXPECT_DEATH(popTwice(), "sender-state stack underflow");
    EXPECT_DEATH(peekEmpty(), "sender-state stack underflow");
}

}  // namespace
}  // namespace g5r
